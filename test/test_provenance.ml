(* Decision provenance: the trace layer must (a) never change the
   routes themselves, (b) agree with the selected best route on every
   decided AS, (c) be byte-identical run-to-run, through the RIB
   cache, through reconvergence and for any domain count — the
   determinism contract EXPLAIN and the JSONL export rely on. *)

module Sm = Netsim_prng.Splitmix
module Asn = Netsim_topo.Asn
module Topology = Netsim_topo.Topology
module Generator = Netsim_topo.Generator
module Announce = Netsim_bgp.Announce
module Route = Netsim_bgp.Route
module Propagate = Netsim_bgp.Propagate
module Rib_cache = Netsim_bgp.Rib_cache
module Provenance = Netsim_obs.Provenance
module Pool = Netsim_par.Pool

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- fixture unit tests ------------------------------------------------ *)

let fixture_state () =
  Propagate.run ~provenance:true (Fixture.topo ())
    (Announce.default ~origin:Fixture.cp)

(* Structural invariants every decided AS must satisfy, checked on the
   whole state: a decision exists iff the AS is reachable and not the
   origin; the decision mirrors [best]; the winner is counted among
   its class's candidates; Only_candidate iff exactly one arrival. *)
let check_consistent s =
  let n = Topology.as_count (Propagate.topology s) in
  let origin = Propagate.origin s in
  let ok = ref true in
  for x = 0 to n - 1 do
    match Propagate.decision s x with
    | None ->
        if x <> origin && Propagate.reachable s x then ok := false
    | Some d -> (
        if x = origin then ok := false;
        let total =
          d.Propagate.d_cand_cust + d.Propagate.d_cand_peer
          + d.Propagate.d_cand_prov
        in
        if total < 1 then ok := false;
        if (d.Propagate.d_rule = Provenance.Only_candidate) <> (total = 1) then
          ok := false;
        if (d.Propagate.d_runner = None) <> (total = 1) then ok := false;
        match Propagate.best s x with
        | None -> ok := false
        | Some (r : Route.t) ->
            if
              r.Route.klass <> d.Propagate.d_klass
              || r.Route.next_hop <> d.Propagate.d_next_hop
              || r.Route.via_link.Netsim_topo.Relation.id
                 <> d.Propagate.d_link_id
            then ok := false)
  done;
  !ok

let test_fixture_consistent () =
  let s = fixture_state () in
  check "has provenance" true (Propagate.has_provenance s);
  check "decisions consistent with best/reachable" true (check_consistent s)

let test_fixture_eyeball_chain () =
  (* EB hears CP directly over both peering sessions (links 7 and 8)
     and once more from its transit provider TR; peer beats provider,
     and the two equal-length peer routes tie down to the session id:
     the private Chicago link (7) wins, the public NY link (8) is the
     runner-up. *)
  let s = fixture_state () in
  match Propagate.decision s Fixture.eb with
  | None -> Alcotest.fail "EB should have a decision"
  | Some d ->
      check "winner class is peer" true (d.Propagate.d_klass = Route.Peer);
      check_int "winner next hop is CP" Fixture.cp d.Propagate.d_next_hop;
      check_int "winner link is the private session" Fixture.l_cp_eb_priv
        d.Propagate.d_link_id;
      check_int "no customer candidates" 0 d.Propagate.d_cand_cust;
      check_int "two peer candidates" 2 d.Propagate.d_cand_peer;
      check "tie broken on stable id" true
        (d.Propagate.d_rule = Provenance.Stable_id);
      (match d.Propagate.d_runner with
      | Some r ->
          check_int "runner-up is the public session" Fixture.l_cp_eb_pub
            r.Propagate.r_link_id;
          check "runner-up class is peer" true (r.Propagate.r_klass = Route.Peer)
      | None -> Alcotest.fail "EB should have a runner-up")

let test_fixture_stub_only_candidate () =
  (* ST's sole neighbor is its provider EB: exactly one arrival, no
     tie to break. *)
  let s = fixture_state () in
  match Propagate.decision s Fixture.st with
  | None -> Alcotest.fail "ST should have a decision"
  | Some d ->
      check "stub learns from provider" true
        (d.Propagate.d_klass = Route.Provider);
      check_int "one provider candidate" 1 d.Propagate.d_cand_prov;
      check "only-candidate rule" true
        (d.Propagate.d_rule = Provenance.Only_candidate);
      check "no runner-up" true (d.Propagate.d_runner = None)

let test_origin_has_no_decision () =
  let s = fixture_state () in
  check "origin decision is None" true (Propagate.decision s Fixture.cp = None)

let test_without_provenance_raises () =
  let s =
    Propagate.run ~provenance:false (Fixture.topo ())
      (Announce.default ~origin:Fixture.cp)
  in
  check "no provenance recorded" false (Propagate.has_provenance s);
  check "decision raises" true
    (match Propagate.decision s Fixture.eb with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_provenance_does_not_change_routes () =
  let topo = Fixture.topo () in
  let config = Announce.default ~origin:Fixture.cp in
  check "routes identical with and without provenance" true
    (Propagate.equal
       (Propagate.run ~provenance:true topo config)
       (Propagate.run ~provenance:false topo config))

let test_reconverge_rebuilds_provenance () =
  let topo = Fixture.topo () in
  let config = Announce.default ~origin:Fixture.cp in
  let s = Propagate.run ~provenance:true topo config in
  (* Fail the winning EB session: provenance after reconvergence must
     equal a full instrumented run on the failed topology — including
     at ASes whose routing entry did not change but whose candidate
     set did. *)
  let failed = Topology.remove_links topo [ Fixture.l_cp_eb_priv ] in
  let incr, _ =
    Propagate.reconverge s ~topo:failed
      (Propagate.Link_removed Fixture.l_cp_eb_priv)
  in
  let full = Propagate.run ~provenance:true failed config in
  check "routes equal" true (Propagate.equal incr full);
  check "provenance carried through reconverge" true
    (Propagate.has_provenance incr);
  check "provenance equals full run" true (Propagate.provenance_equal incr full)

(* ---- determinism properties (qcheck) ----------------------------------- *)

let random_topo seed =
  let params =
    {
      Generator.small_params with
      Generator.seed;
      n_tier1 = 2 + (seed mod 3);
      n_transit = 4 + (seed mod 5);
      n_eyeball = 8 + (seed mod 10);
      n_stub = 6 + (seed mod 8);
    }
  in
  Generator.generate params

let pick_origin topo seed =
  let eyeballs = Topology.by_klass topo Asn.Eyeball in
  List.nth eyeballs (seed mod List.length eyeballs)

let seed_gen = QCheck.int_range 0 500

let with_domains d f =
  let saved = Pool.domain_count () in
  Pool.set_domain_count d;
  Fun.protect ~finally:(fun () -> Pool.set_domain_count saved) f

let isolated_cache f =
  let saved = Rib_cache.enabled () in
  Rib_cache.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Rib_cache.set_enabled saved)
    (fun () -> Rib_cache.capture (Rib_cache.fresh_shard ()) f)

let prop_run_to_run_identical =
  QCheck.Test.make ~name:"provenance is identical run-to-run" ~count:30
    seed_gen (fun seed ->
      let topo = random_topo seed in
      let config = Announce.default ~origin:(pick_origin topo seed) in
      let a = Propagate.run ~provenance:true topo config in
      let b = Propagate.run ~provenance:true topo config in
      Propagate.equal a b && Propagate.provenance_equal a b)

let prop_consistent_on_random =
  QCheck.Test.make
    ~name:"decisions agree with best/reachable on random topologies" ~count:25
    seed_gen (fun seed ->
      let topo = random_topo seed in
      let config = Announce.default ~origin:(pick_origin topo seed) in
      check_consistent (Propagate.run ~provenance:true topo config))

let prop_cache_transparent =
  QCheck.Test.make
    ~name:"provenance through the RIB cache equals a direct run (hit upgrade)"
    ~count:20 seed_gen (fun seed ->
      let topo = random_topo seed in
      let config = Announce.default ~origin:(pick_origin topo seed) in
      let direct = Propagate.run ~provenance:true topo config in
      isolated_cache @@ fun () ->
      (* Prime the cache without provenance, then ask with: the hit
         must upgrade and still be bit-identical to the direct run. *)
      let plain = Rib_cache.run ~provenance:false topo config in
      let upgraded = Rib_cache.run ~provenance:true topo config in
      let again = Rib_cache.run ~provenance:true topo config in
      Propagate.equal plain direct
      && Propagate.has_provenance upgraded
      && Propagate.equal upgraded direct
      && Propagate.provenance_equal upgraded direct
      && Propagate.provenance_equal again direct)

let prop_reconverge_provenance_equals_full =
  QCheck.Test.make
    ~name:"reconverged provenance equals full instrumented run" ~count:20
    (QCheck.pair seed_gen (QCheck.int_range 0 10_000))
    (fun (seed, lseed) ->
      let topo = random_topo seed in
      let config = Announce.default ~origin:(pick_origin topo seed) in
      let state = Propagate.run ~provenance:true topo config in
      let l = lseed mod Topology.link_count topo in
      let failed = Topology.remove_links topo [ l ] in
      let full = Propagate.run ~provenance:true failed config in
      let incr, _ =
        Propagate.reconverge state ~topo:failed (Propagate.Link_removed l)
      in
      let restored, _ =
        Propagate.reconverge incr ~topo (Propagate.Link_added l)
      in
      Propagate.equal incr full
      && Propagate.provenance_equal incr full
      && Propagate.provenance_equal restored state)

(* The arena checked against an oracle that shares nothing with the
   kernel: every candidate the final neighbour entries imply, counted
   and ranked per class. *)
let prop_decisions_match_oracle =
  QCheck.Test.make
    ~name:"decisions equal the candidate-enumeration oracle" ~count:30
    (QCheck.pair seed_gen (QCheck.int_range 0 1000))
    (fun (seed, cseed) ->
      let topo = random_topo seed in
      let config =
        Test_util.announce_shape topo (pick_origin topo seed) cseed
      in
      let s = Propagate.run ~provenance:true topo config in
      let ok = ref true in
      for x = 0 to Topology.as_count topo - 1 do
        if Propagate.decision s x <> Oracle.decision s x then ok := false
      done;
      !ok)

let prop_domain_count_invariant =
  QCheck.Test.make
    ~name:"provenance identical for 1 and 4 domains (pooled fan-out)"
    ~count:10 seed_gen (fun seed ->
      let topo = random_topo seed in
      let origins =
        Array.of_list (Topology.by_klass topo Asn.Eyeball)
      in
      let fan d =
        with_domains d (fun () ->
            Pool.map
              (fun o ->
                Propagate.run ~provenance:true topo (Announce.default ~origin:o))
              origins)
      in
      let serial = fan 1 and pooled = fan 4 in
      Array.for_all2
        (fun a b -> Propagate.equal a b && Propagate.provenance_equal a b)
        serial pooled)

let suite =
  [
    Alcotest.test_case "fixture decisions consistent" `Quick
      test_fixture_consistent;
    Alcotest.test_case "fixture: EB peer tie-break chain" `Quick
      test_fixture_eyeball_chain;
    Alcotest.test_case "fixture: ST only-candidate" `Quick
      test_fixture_stub_only_candidate;
    Alcotest.test_case "origin has no decision" `Quick
      test_origin_has_no_decision;
    Alcotest.test_case "decision without provenance raises" `Quick
      test_without_provenance_raises;
    Alcotest.test_case "provenance leaves routes unchanged" `Quick
      test_provenance_does_not_change_routes;
    Alcotest.test_case "reconverge rebuilds provenance" `Quick
      test_reconverge_rebuilds_provenance;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_run_to_run_identical;
        prop_consistent_on_random;
        prop_cache_transparent;
        prop_reconverge_provenance_equals_full;
        prop_domain_count_invariant;
        prop_decisions_match_oracle;
      ]
