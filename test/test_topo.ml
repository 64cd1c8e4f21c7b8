(* Tests for AS records, relations, the topology container, the
   generator and the invariant checker. *)

module Sm = Netsim_prng.Splitmix
module Asn = Netsim_topo.Asn
module Relation = Netsim_topo.Relation
module Topology = Netsim_topo.Topology
module Generator = Netsim_topo.Generator
module Invariants = Netsim_topo.Invariants

(* ---- Asn / Relation ---- *)

let test_asn_home () =
  let a = { Asn.id = 0; klass = Asn.Stub; name = "x"; footprint = [| 7; 3 |] } in
  Alcotest.(check int) "home is first" 7 (Asn.home a);
  Alcotest.(check bool) "present" true (Asn.present_at a 3);
  Alcotest.(check bool) "absent" false (Asn.present_at a 9)

let test_asn_transit_like () =
  let mk klass = { Asn.id = 0; klass; name = ""; footprint = [| 0 |] } in
  Alcotest.(check bool) "tier1" true (Asn.is_transit_like (mk Asn.Tier1));
  Alcotest.(check bool) "transit" true (Asn.is_transit_like (mk Asn.Transit));
  Alcotest.(check bool) "eyeball" false (Asn.is_transit_like (mk Asn.Eyeball));
  Alcotest.(check bool) "content" false (Asn.is_transit_like (mk Asn.Content))

let test_relation_perspectives () =
  let l =
    { Relation.id = 0; a = 1; b = 2; kind = Relation.C2p; metro = 0;
      capacity_gbps = 1. }
  in
  Alcotest.(check bool) "a sees provider" true
    (Relation.rel_of l 1 = Relation.To_provider);
  Alcotest.(check bool) "b sees customer" true
    (Relation.rel_of l 2 = Relation.To_customer);
  Alcotest.(check int) "other of a" 2 (Relation.other l 1);
  Alcotest.(check int) "other of b" 1 (Relation.other l 2)

let test_relation_peering_symmetric () =
  let l =
    { Relation.id = 0; a = 1; b = 2; kind = Relation.Peer_public; metro = 0;
      capacity_gbps = 1. }
  in
  Alcotest.(check bool) "both see pub peer" true
    (Relation.rel_of l 1 = Relation.Pub_peer
    && Relation.rel_of l 2 = Relation.Pub_peer)

let test_relation_bad_endpoint () =
  let l =
    { Relation.id = 0; a = 1; b = 2; kind = Relation.C2p; metro = 0;
      capacity_gbps = 1. }
  in
  Alcotest.check_raises "not endpoint"
    (Invalid_argument "Relation.rel_of: AS is not an endpoint of this link")
    (fun () -> ignore (Relation.rel_of l 5))

let test_relation_is_peering () =
  Alcotest.(check bool) "c2p" false (Relation.is_peering Relation.C2p);
  Alcotest.(check bool) "priv" true (Relation.is_peering Relation.Peer_private)

(* ---- Topology on the fixture ---- *)

let test_fixture_counts () =
  let t = Fixture.topo () in
  Alcotest.(check int) "ases" 6 (Topology.as_count t);
  Alcotest.(check int) "links" 9 (Topology.link_count t)

let test_fixture_adjacency () =
  let t = Fixture.topo () in
  Alcotest.(check (list int)) "cp providers" [ Fixture.t1a ]
    (Topology.providers t Fixture.cp);
  Alcotest.(check (list int)) "cp peers" [ Fixture.eb ]
    (Topology.peers t Fixture.cp);
  Alcotest.(check (list int)) "tr providers" [ Fixture.t1a; Fixture.t1b ]
    (Topology.providers t Fixture.tr);
  Alcotest.(check (list int)) "t1a customers"
    [ Fixture.tr; Fixture.cp ]
    (List.sort compare (Topology.customers t Fixture.t1a));
  Alcotest.(check (list int)) "eb customers" [ Fixture.st ]
    (Topology.customers t Fixture.eb)

let test_fixture_links_between () =
  let t = Fixture.topo () in
  Alcotest.(check int) "cp-t1a has two sessions" 2
    (List.length (Topology.links_between t Fixture.cp Fixture.t1a));
  Alcotest.(check int) "cp-eb has two sessions" 2
    (List.length (Topology.links_between t Fixture.cp Fixture.eb));
  Alcotest.(check int) "no st-cp link" 0
    (List.length (Topology.links_between t Fixture.st Fixture.cp))

let test_fixture_degree () =
  let t = Fixture.topo () in
  Alcotest.(check int) "stub degree 1" 1 (Topology.degree t Fixture.st)

let test_by_klass () =
  let t = Fixture.topo () in
  Alcotest.(check (list int)) "tier1s" [ 0; 1 ] (Topology.by_klass t Asn.Tier1);
  Alcotest.(check (list int)) "content" [ 5 ] (Topology.by_klass t Asn.Content)

let test_ases_at_metro () =
  let t = Fixture.topo () in
  let at_chicago = Topology.ases_at_metro t Fixture.chicago in
  Alcotest.(check (list int)) "chicago residents"
    [ Fixture.tr; Fixture.eb; Fixture.st; Fixture.cp ]
    (List.sort compare at_chicago)

let test_add_as_and_links () =
  let t = Fixture.topo () in
  let t, id =
    Topology.add_as t ~klass:Asn.Stub ~name:"NEW" ~footprint:[| Fixture.ny |]
  in
  Alcotest.(check int) "new id" 6 id;
  let t =
    Topology.add_links t [ (id, Fixture.eb, Relation.C2p, Fixture.ny, 10.) ]
  in
  Alcotest.(check (list int)) "new provider" [ Fixture.eb ]
    (Topology.providers t id);
  Alcotest.(check int) "links grew" 10 (Topology.link_count t)

let test_make_rejects_self_link () =
  let ases =
    [| { Asn.id = 0; klass = Asn.Stub; name = "a"; footprint = [| 0 |] } |]
  in
  let bad =
    [ { Relation.id = 0; a = 0; b = 0; kind = Relation.C2p; metro = 0;
        capacity_gbps = 1. } ]
  in
  Alcotest.check_raises "self link" (Invalid_argument "Topology.make: self-link")
    (fun () -> ignore (Topology.make ases bad))

let test_make_rejects_sparse_ids () =
  let ases =
    [| { Asn.id = 1; klass = Asn.Stub; name = "a"; footprint = [| 0 |] } |]
  in
  Alcotest.check_raises "sparse ids"
    (Invalid_argument "Topology.make: AS ids must be dense") (fun () ->
      ignore (Topology.make ases []))

(* ---- Generator ---- *)

let generated = lazy (Generator.generate Generator.default_params)

let test_generator_counts () =
  let t = Lazy.force generated in
  let p = Generator.default_params in
  Alcotest.(check int) "tier1 count" p.Generator.n_tier1
    (List.length (Topology.by_klass t Asn.Tier1));
  Alcotest.(check int) "transit count" p.Generator.n_transit
    (List.length (Topology.by_klass t Asn.Transit));
  Alcotest.(check int) "eyeball count" p.Generator.n_eyeball
    (List.length (Topology.by_klass t Asn.Eyeball));
  Alcotest.(check int) "stub count" p.Generator.n_stub
    (List.length (Topology.by_klass t Asn.Stub))

let test_generator_deterministic () =
  let a = Generator.generate Generator.small_params in
  let b = Generator.generate Generator.small_params in
  Alcotest.(check int) "same link count" (Topology.link_count a)
    (Topology.link_count b);
  Alcotest.(check bool) "same links" true
    (Topology.links a = Topology.links b)

let test_generator_seed_changes_topology () =
  let a = Generator.generate Generator.small_params in
  let b =
    Generator.generate { Generator.small_params with Generator.seed = 99 }
  in
  Alcotest.(check bool) "different seed, different links" true
    (Topology.links a <> Topology.links b)

let test_generator_invariants () =
  Alcotest.(check (list string)) "no violations" []
    (Invariants.check (Lazy.force generated))

let test_generator_small_invariants () =
  Alcotest.(check (list string)) "small topology valid" []
    (Invariants.check (Generator.generate Generator.small_params))

let test_generator_tier1_clique () =
  let t = Lazy.force generated in
  let tier1s = Topology.by_klass t Asn.Tier1 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a < b then
            Alcotest.(check bool) "tier1 pair connected" true
              (Topology.links_between t a b <> []))
        tier1s)
    tier1s

let test_generator_multi_metro_interconnects () =
  (* The detour fix: big AS pairs must interconnect at several
     metros. *)
  let t = Lazy.force generated in
  let tier1s = Topology.by_klass t Asn.Tier1 in
  match tier1s with
  | a :: b :: _ ->
      Alcotest.(check bool) "several sessions" true
        (List.length (Topology.links_between t a b) >= 5)
  | _ -> Alcotest.fail "need at least two tier1s"

let test_generator_eyeballs_have_providers () =
  let t = Lazy.force generated in
  List.iter
    (fun eb ->
      Alcotest.(check bool) "eyeball multihomed or single-homed" true
        (List.length (Topology.providers t eb) >= 1))
    (Topology.by_klass t Asn.Eyeball)

let test_generator_stub_single_homed () =
  let t = Lazy.force generated in
  List.iter
    (fun st ->
      Alcotest.(check int) "one provider" 1
        (List.length (Topology.providers t st)))
    (Topology.by_klass t Asn.Stub)

let test_common_metros () =
  let rng = Sm.create 1 in
  let shared = Generator.common_metros rng ~k:3 [| 1; 2; 3; 4 |] [| 3; 4; 5 |] in
  Alcotest.(check bool) "subset of intersection" true
    (List.for_all (fun m -> List.mem m [ 3; 4 ]) shared);
  Alcotest.(check bool) "nonempty" true (shared <> []);
  Alcotest.(check (list int)) "disjoint footprints" []
    (Generator.common_metros rng ~k:3 [| 1 |] [| 2 |])

let test_common_metro_option () =
  let rng = Sm.create 2 in
  Alcotest.(check (option int)) "singleton intersection" (Some 9)
    (Generator.common_metro rng [| 9; 1 |] [| 9; 2 |]);
  Alcotest.(check (option int)) "disjoint" None
    (Generator.common_metro rng [| 1 |] [| 2 |])

(* ---- Invariants ---- *)

let test_invariants_fixture_clean () =
  Alcotest.(check (list string)) "fixture valid" []
    (Invariants.check (Fixture.topo ()))

let test_provider_depth () =
  let t = Fixture.topo () in
  Alcotest.(check (option int)) "tier1 depth 0" (Some 0)
    (Invariants.provider_depth t Fixture.t1a);
  Alcotest.(check (option int)) "transit depth 1" (Some 1)
    (Invariants.provider_depth t Fixture.tr);
  Alcotest.(check (option int)) "stub depth 3" (Some 3)
    (Invariants.provider_depth t Fixture.st)

let test_invariants_detect_orphan () =
  (* A stub with no provider chain must be flagged. *)
  let ases =
    [|
      { Asn.id = 0; klass = Asn.Tier1; name = "t"; footprint = [| 0 |] };
      { Asn.id = 1; klass = Asn.Stub; name = "s"; footprint = [| 0 |] };
    |]
  in
  let t = Topology.make ases [] in
  let violations = Invariants.check t in
  Alcotest.(check bool) "orphan stub flagged" true
    (List.exists
       (fun v -> Test_util.contains v "no provider chain")
       violations)

let test_invariants_detect_missing_clique () =
  let ases =
    [|
      { Asn.id = 0; klass = Asn.Tier1; name = "a"; footprint = [| 0 |] };
      { Asn.id = 1; klass = Asn.Tier1; name = "b"; footprint = [| 0 |] };
    |]
  in
  let t = Topology.make ases [] in
  Alcotest.(check bool) "missing clique flagged" true
    (List.exists
       (fun v -> Test_util.contains v "not interconnected")
       (Invariants.check t))

(* ---- CSR arena consistency across constructors ---- *)

let check = Alcotest.(check bool)

(* Every constructor must leave the CSR arena in lockstep with the
   list adjacency the oracle builds from [Topology.links] alone:
   offsets tile the word array, rows decode to the same sessions in
   the same order. *)
let check_csr_matches_lists topo =
  let n = Topology.as_count topo in
  let off = Topology.csr_offsets topo and wrd = Topology.csr_words topo in
  let adj = Oracle.adjacency topo in
  Alcotest.(check int) "offsets length" (n + 1) (Array.length off);
  Alcotest.(check int) "words = 2 * links" (2 * Topology.link_count topo)
    (Array.length wrd);
  Alcotest.(check int) "last offset tiles the arena" (Array.length wrd) off.(n);
  for x = 0 to n - 1 do
    let row = Array.sub wrd off.(x) (off.(x + 1) - off.(x)) in
    Alcotest.(check int)
      (Printf.sprintf "row %d width" x)
      (List.length adj.(x)) (Array.length row);
    List.iteri
      (fun i (nb : Oracle.neighbor) ->
        Alcotest.(check int) "peer" nb.peer (Topology.pn_peer row.(i));
        Alcotest.(check int) "link id" nb.link.Relation.id
          (Topology.pn_link row.(i));
        Alcotest.(check bool) "rel" true (Topology.pn_rel row.(i) = nb.rel))
      adj.(x)
  done

let test_csr_fixture () = check_csr_matches_lists (Fixture.topo ())

let test_csr_after_remove_links () =
  let topo = Fixture.topo () in
  let failed = Topology.remove_links topo [ Fixture.l_t1_peer; Fixture.l_eb_tr ] in
  check_csr_matches_lists failed;
  (* The surviving link ids are stable, only the arena shrank. *)
  Alcotest.(check int) "two links gone"
    (Topology.link_count topo - 2)
    (Topology.link_count failed)

let test_csr_after_add_as () =
  let topo = Fixture.topo () in
  let grown, id =
    Topology.add_as topo ~klass:Asn.Content ~name:"CDN"
      ~footprint:[| Fixture.ny |]
  in
  (* A fresh AS has an empty row: one extra offset, no extra words. *)
  Alcotest.(check int) "new id is dense" (Topology.as_count topo) id;
  let off = Topology.csr_offsets grown in
  Alcotest.(check int) "empty new row" off.(id) off.(id + 1);
  check_csr_matches_lists grown;
  let linked =
    Topology.add_links grown
      [ (id, Fixture.t1a, Relation.C2p, Fixture.ny, 100.) ]
  in
  check_csr_matches_lists linked

(* [link] finds records by id, also once [remove_links] has left the
   ids sparse, and [add_links] then numbers new links past the
   largest id instead of reusing one. *)
let test_link_by_id () =
  let topo = Fixture.topo () in
  Array.iter
    (fun (l : Relation.link) ->
      check "dense id" true (Topology.link topo l.Relation.id == l))
    (Topology.links topo);
  let failed = Topology.remove_links topo [ Fixture.l_t1_peer ] in
  Array.iter
    (fun (l : Relation.link) ->
      check "sparse id" true (Topology.link failed l.Relation.id = l))
    (Topology.links failed);
  let unknown id =
    match Topology.link failed id with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check "removed id unknown" true (unknown Fixture.l_t1_peer);
  check "negative id unknown" true (unknown (-1));
  check "id past the end unknown" true (unknown (Topology.link_count topo));
  let grown =
    Topology.add_links failed
      [ (Fixture.st, Fixture.eb, Relation.C2p, Fixture.chicago, 1.) ]
  in
  let fresh = (Topology.links grown).(Topology.link_count grown - 1) in
  Alcotest.(check int) "new id past the largest" (Topology.link_count topo)
    fresh.Relation.id;
  check_csr_matches_lists grown

(* The "links of an AS at a metro" helper returns ascending ids. *)
let test_link_ids_of () =
  let topo = Fixture.topo () in
  let expect ?metro x =
    Oracle.neighbors topo x
    |> List.filter_map (fun (nb : Oracle.neighbor) ->
           match metro with
           | Some m when nb.link.Relation.metro <> m -> None
           | Some _ | None -> Some nb.link.Relation.id)
    |> List.sort compare
  in
  for x = 0 to Topology.as_count topo - 1 do
    Alcotest.(check (list int))
      "all links" (expect x)
      (Topology.link_ids_of topo x);
    List.iter
      (fun m ->
        Alcotest.(check (list int)) "links at metro" (expect ~metro:m x)
          (Topology.link_ids_of topo ~metro:m x))
      [ Fixture.ny; Fixture.chicago ]
  done

(* of_csr: the constructor the mmap snapshot loader uses.  Rebuilding
   a topology from its own CSR arena must reproduce it exactly, and
   any other arena must be rejected. *)
let test_of_csr_roundtrip () =
  let topo = Topology.remove_links (Fixture.topo ()) [ Fixture.l_eb_tr ] in
  let rebuilt =
    Topology.of_csr
      ~ases:(Array.copy (Topology.ases topo))
      ~links:(Array.copy (Topology.links topo))
      ~csr_off:(Array.copy (Topology.csr_offsets topo))
      ~csr_words:(Array.copy (Topology.csr_words topo))
  in
  check_csr_matches_lists rebuilt;
  check "same offsets" true
    (Topology.csr_offsets rebuilt = Topology.csr_offsets topo);
  check "same words" true (Topology.csr_words rebuilt = Topology.csr_words topo);
  Array.iter
    (fun (l : Relation.link) ->
      check "same link by id" true (Topology.link rebuilt l.Relation.id = l))
    (Topology.links topo)

let test_of_csr_rejects_inconsistent () =
  let topo = Fixture.topo () in
  let ases = Topology.ases topo and links = Topology.links topo in
  let off = Topology.csr_offsets topo and wrd = Topology.csr_words topo in
  let expect_invalid what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted" what
  in
  expect_invalid "offsets wrong length" (fun () ->
      Topology.of_csr ~ases ~links
        ~csr_off:(Array.sub off 0 (Array.length off - 1))
        ~csr_words:wrd);
  expect_invalid "offsets not ending at arena" (fun () ->
      let bad = Array.copy off in
      bad.(Array.length bad - 1) <- bad.(Array.length bad - 1) - 1;
      Topology.of_csr ~ases ~links ~csr_off:bad ~csr_words:wrd);
  expect_invalid "offsets not monotone" (fun () ->
      let bad = Array.copy off in
      bad.(1) <- bad.(1) + Array.length wrd;
      Topology.of_csr ~ases ~links ~csr_off:bad ~csr_words:wrd);
  expect_invalid "word references unknown link" (fun () ->
      let bad = Array.copy wrd in
      bad.(0) <- bad.(0) lxor 1;
      Topology.of_csr ~ases ~links ~csr_off:off ~csr_words:bad);
  expect_invalid "negative word" (fun () ->
      let bad = Array.copy wrd in
      bad.(0) <- -1;
      Topology.of_csr ~ases ~links ~csr_off:off ~csr_words:bad);
  (* Row 0 loses its first word, or holds it twice; the later offsets
     shift so the arena still tiles.  Every word still names a link
     of its row, but the arena no longer has 2 words per link. *)
  let shifted d = Array.mapi (fun x o -> if x = 0 then o else o + d) off in
  expect_invalid "dropped word" (fun () ->
      let bad = Array.sub wrd 1 (Array.length wrd - 1) in
      Topology.of_csr ~ases ~links ~csr_off:(shifted (-1)) ~csr_words:bad);
  expect_invalid "repeated word" (fun () ->
      let bad = Array.append [| wrd.(0) |] wrd in
      Topology.of_csr ~ases ~links ~csr_off:(shifted 1) ~csr_words:bad);
  expect_invalid "row out of order" (fun () ->
      let bad = Array.copy wrd in
      bad.(0) <- wrd.(1);
      bad.(1) <- wrd.(0);
      Topology.of_csr ~ases ~links ~csr_off:off ~csr_words:bad)

let suite =
  [
    Alcotest.test_case "asn home/present" `Quick test_asn_home;
    Alcotest.test_case "asn transit-like" `Quick test_asn_transit_like;
    Alcotest.test_case "relation perspectives" `Quick test_relation_perspectives;
    Alcotest.test_case "relation peering symmetric" `Quick test_relation_peering_symmetric;
    Alcotest.test_case "relation bad endpoint" `Quick test_relation_bad_endpoint;
    Alcotest.test_case "relation is_peering" `Quick test_relation_is_peering;
    Alcotest.test_case "fixture counts" `Quick test_fixture_counts;
    Alcotest.test_case "fixture adjacency" `Quick test_fixture_adjacency;
    Alcotest.test_case "fixture links_between" `Quick test_fixture_links_between;
    Alcotest.test_case "fixture degree" `Quick test_fixture_degree;
    Alcotest.test_case "by_klass" `Quick test_by_klass;
    Alcotest.test_case "ases_at_metro" `Quick test_ases_at_metro;
    Alcotest.test_case "add_as/add_links" `Quick test_add_as_and_links;
    Alcotest.test_case "reject self link" `Quick test_make_rejects_self_link;
    Alcotest.test_case "reject sparse ids" `Quick test_make_rejects_sparse_ids;
    Alcotest.test_case "generator counts" `Slow test_generator_counts;
    Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
    Alcotest.test_case "generator seed sensitivity" `Quick test_generator_seed_changes_topology;
    Alcotest.test_case "generator invariants" `Slow test_generator_invariants;
    Alcotest.test_case "small generator invariants" `Quick test_generator_small_invariants;
    Alcotest.test_case "tier1 clique" `Slow test_generator_tier1_clique;
    Alcotest.test_case "multi-metro interconnects" `Slow test_generator_multi_metro_interconnects;
    Alcotest.test_case "eyeball providers" `Slow test_generator_eyeballs_have_providers;
    Alcotest.test_case "stub single-homed" `Slow test_generator_stub_single_homed;
    Alcotest.test_case "common_metros" `Quick test_common_metros;
    Alcotest.test_case "common_metro option" `Quick test_common_metro_option;
    Alcotest.test_case "fixture invariants" `Quick test_invariants_fixture_clean;
    Alcotest.test_case "provider depth" `Quick test_provider_depth;
    Alcotest.test_case "detect orphan" `Quick test_invariants_detect_orphan;
    Alcotest.test_case "detect missing clique" `Quick test_invariants_detect_missing_clique;
    Alcotest.test_case "CSR matches list adjacency" `Quick test_csr_fixture;
    Alcotest.test_case "of_csr round-trips the arena" `Quick
      test_of_csr_roundtrip;
    Alcotest.test_case "of_csr rejects inconsistent arenas" `Quick
      test_of_csr_rejects_inconsistent;
    Alcotest.test_case "CSR rebuilt by remove_links" `Quick test_csr_after_remove_links;
    Alcotest.test_case "CSR extended by add_as/add_links" `Quick test_csr_after_add_as;
    Alcotest.test_case "link by id" `Quick test_link_by_id;
    Alcotest.test_case "link_ids_of" `Quick test_link_ids_of;
  ]
