(* The internet-scale sweep contract, differentially tested:

   1. The sweep's fan-out — [Pool.map] over [Propagate.run], and
      [Scale_sweep.map] itself — must be entry-for-entry equal to N
      independent [Propagate.run] calls, for random hierarchies,
      origin sets (duplicates included), domain counts, RIB cache
      on/off and provenance on/off; the scale sweep's states must
      equal the Set-based [Oracle.run]; and the sweep must leave the
      RIB cache untouched.

   2. The scale/shape topology constructors are total: degenerate
      shapes (single AS, max-degree star, provider chain, AS count at
      the 2^20 packed cap) build valid CSR arenas and never raise;
      out-of-cap inputs return [Error]. *)

module Sm = Netsim_prng.Splitmix
module Asn = Netsim_topo.Asn
module Relation = Netsim_topo.Relation
module Topology = Netsim_topo.Topology
module Generator = Netsim_topo.Generator
module Invariants = Netsim_topo.Invariants
module Announce = Netsim_bgp.Announce
module Propagate = Netsim_bgp.Propagate
module Rib_cache = Netsim_bgp.Rib_cache
module Pool = Netsim_par.Pool

let check = Alcotest.(check bool)

(* Randomized small Internets, as in test_properties. *)
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

(* [k] origins spread over all ASes; deliberately allows duplicates
   (the pool must compute duplicated configs independently, and the
   cache must hit on them). *)
let pick_origins topo seed k =
  let n = Topology.as_count topo in
  Array.init k (fun j -> ((seed * 7) + (j * 13)) mod n)

let with_domains d f =
  let saved = Pool.domain_count () in
  Pool.set_domain_count d;
  Fun.protect ~finally:(fun () -> Pool.set_domain_count saved) f

let with_cache on f =
  let saved = Rib_cache.enabled () in
  Rib_cache.set_enabled on;
  Rib_cache.clear ();
  Fun.protect
    ~finally:(fun () ->
      Rib_cache.clear ();
      Rib_cache.set_enabled saved)
    f

(* Per-origin equality of a fanned-out state against an independent run:
   routing entries, provenance arenas, and the queryable decision
   chain of every AS. *)
let state_equals_solo topo config ~pv st =
  let solo = Propagate.run ~provenance:pv topo config in
  Propagate.equal st solo
  && Propagate.provenance_equal st solo
  &&
  if not pv then true
  else begin
    let n = Topology.as_count topo in
    let ok = ref true in
    for x = 0 to n - 1 do
      if Propagate.decision st x <> Propagate.decision solo x then ok := false
    done;
    !ok
  end

let seed_gen = QCheck.int_range 0 500

let prop_pool_equals_sequential =
  QCheck.Test.make
    ~name:
      "Pool.map(Propagate.run) == N independent runs (origins 1-16, \
       domains 1-4, provenance on/off)"
    ~count:25
    QCheck.(triple seed_gen (int_range 1 16) (int_range 1 4))
    (fun (seed, k, domains) ->
      let topo = random_topo seed in
      let origins = pick_origins topo seed k in
      let configs = Array.map (fun origin -> Announce.default ~origin) origins in
      with_domains domains @@ fun () ->
      List.for_all
        (fun pv ->
          let states = Pool.map (Propagate.run ~provenance:pv topo) configs in
          Array.length states = k
          && Array.for_all Fun.id
               (Array.mapi
                  (fun i st -> state_equals_solo topo configs.(i) ~pv st)
                  states))
        [ false; true ])

(* [Scale_sweep.map] over random hierarchies: [f] sees each state
   inside its pool task, and the per-origin verdicts that come back
   must all hold and arrive in the same origin order as on one domain,
   at any domain count and cache setting. *)
let prop_sweep_map_equals_sequential =
  QCheck.Test.make
    ~name:
      "Scale_sweep.map == independent runs (origins 1-40, domains 1-4, \
       cache on/off)"
    ~count:12
    QCheck.(quad seed_gen (int_range 1 40) (int_range 1 4) bool)
    (fun (seed, k, domains, cache_on) ->
      let topo = random_topo seed in
      let p =
        { Beatbgp.Scale_sweep.small_params with
          Beatbgp.Scale_sweep.sp_origins = k }
      in
      let order =
        with_domains 1 @@ fun () -> Beatbgp.Scale_sweep.map p topo Propagate.origin
      in
      with_domains domains @@ fun () ->
      with_cache cache_on @@ fun () ->
      let got =
        Beatbgp.Scale_sweep.map p topo (fun st ->
            ( Propagate.origin st,
              Propagate.equal st (Propagate.run topo (Propagate.config st)) ))
      in
      Array.length got >= 1
      && Array.map fst got = order
      && Array.for_all
           (fun (o, ok) -> ok && (Topology.asn topo o).Asn.klass = Asn.Stub)
           got)

let prop_pool_provenance_through_cache =
  QCheck.Test.make
    ~name:"Pool.map(Rib_cache.run ~provenance) preserves decision chains"
    ~count:10
    QCheck.(triple seed_gen (int_range 1 8) (int_range 1 4))
    (fun (seed, k, domains) ->
      let topo = random_topo seed in
      let origins = pick_origins topo seed k in
      let configs = Array.map (fun origin -> Announce.default ~origin) origins in
      with_domains domains @@ fun () ->
      with_cache true @@ fun () ->
      (* Prime the cache without provenance: every lookup that follows
         must upgrade rather than serve a state without an arena. *)
      ignore (Pool.map (Rib_cache.run ~provenance:false topo) configs);
      let states =
        Pool.map_batches ~batch:4
          (Array.map (Rib_cache.run ~provenance:true topo))
          configs
      in
      Array.for_all Fun.id
        (Array.mapi
           (fun i st -> state_equals_solo topo configs.(i) ~pv:true st)
           states))

(* The sweep itself against the Set-based reference, which shares no
   code with the kernel: every state [Scale_sweep.map] sees at
   [small_params] (64 origins, 16 per pool task) must equal
   [Oracle.run] of its config, on one domain and on four. *)
let test_sweep_matches_oracle () =
  let p = Beatbgp.Scale_sweep.small_params in
  match Generator.generate_scale p.Beatbgp.Scale_sweep.sp_scale with
  | Error e -> Alcotest.failf "small_scale_params: %s" e
  | Ok topo ->
      List.iter
        (fun domains ->
          with_domains domains @@ fun () ->
          with_cache true @@ fun () ->
          let verdicts =
            Beatbgp.Scale_sweep.map p topo (fun st ->
                ( Propagate.origin st,
                  Propagate.equal st (Oracle.run topo (Propagate.config st))
                ))
          in
          Alcotest.(check int) "one state per origin" 64 (Array.length verdicts);
          Array.iter
            (fun (origin, ok) ->
              check
                (Printf.sprintf "domains %d, origin %d: sweep == Oracle.run"
                   domains origin)
                true ok)
            verdicts)
        [ 1; 4 ]

(* The sweep streams: states die inside their pool tasks and never
   reach the RIB cache, so a full [Scale_sweep.run] with the cache on
   leaves the caller's shard empty, at one domain and at four. *)
let test_sweep_leaves_cache_empty () =
  List.iter
    (fun domains ->
      with_domains domains @@ fun () ->
      with_cache true @@ fun () ->
      Rib_cache.capture (Rib_cache.fresh_shard ()) @@ fun () ->
      (match Beatbgp.Scale_sweep.run Beatbgp.Scale_sweep.small_params with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "Scale_sweep.run: %s" e);
      Alcotest.(check int)
        (Printf.sprintf "domains %d: no cache entries" domains)
        0 (Rib_cache.size ());
      Alcotest.(check int)
        (Printf.sprintf "domains %d: no cache misses" domains)
        0 (Rib_cache.misses ()))
    [ 1; 4 ]

(* ---- topology generator totality -------------------------------------- *)

(* Each class segment of the partition must be its rows' CSR words of
   that class, in row order. *)
let partition_consistent topo =
  let n = Topology.as_count topo in
  let off = Topology.csr_offsets topo and wrd = Topology.csr_words topo in
  let p = Topology.partition topo in
  let row seg_off (seg_w : int array) x =
    Array.to_list (Array.sub seg_w seg_off.(x) (seg_off.(x + 1) - seg_off.(x)))
  in
  let ok = ref true in
  for x = 0 to n - 1 do
    let words = Array.to_list (Array.sub wrd off.(x) (off.(x + 1) - off.(x))) in
    let only f = List.filter (fun pn -> f (Topology.pn_rel pn)) words in
    if
      row p.Topology.up_off p.Topology.up_words x
      <> only (fun r -> r = Relation.To_provider)
      || row p.Topology.lat_off p.Topology.lat_words x
         <> only (function
              | Relation.Priv_peer | Relation.Pub_peer -> true
              | Relation.To_customer | Relation.To_provider -> false)
      || row p.Topology.down_off p.Topology.down_words x
         <> only (fun r -> r = Relation.To_customer)
    then ok := false
  done;
  !ok

(* The CSR arena must agree with the oracle's list adjacency, built
   from the link array alone, in content and order, with offsets that
   tile the word array exactly, and the class partition must agree
   with the arena. *)
let csr_consistent topo =
  let n = Topology.as_count topo in
  let off = Topology.csr_offsets topo and wrd = Topology.csr_words topo in
  let adj = Oracle.adjacency topo in
  Array.length off = n + 1
  && off.(0) = 0
  && off.(n) = Array.length wrd
  && off.(n) = 2 * Topology.link_count topo
  &&
  let ok = ref true in
  for x = 0 to n - 1 do
    if off.(x) > off.(x + 1) then ok := false;
    let nbs = adj.(x) in
    if List.length nbs <> off.(x + 1) - off.(x) then ok := false
    else
      List.iteri
        (fun i (nb : Oracle.neighbor) ->
          let pn = wrd.(off.(x) + i) in
          if
            Topology.pn_peer pn <> nb.peer
            || Topology.pn_rel pn <> nb.rel
            || Topology.pn_link pn <> nb.link.Relation.id
          then ok := false)
        nbs
  done;
  !ok && partition_consistent topo

(* A [remove_links] result must not inherit its parent's partition:
   the one it builds has to agree with its own arena, whether or not
   the parent's was built first. *)
let prop_removed_links_partition =
  QCheck.Test.make ~name:"remove_links keeps the class partition consistent"
    ~count:25
    QCheck.(triple seed_gen (int_range 0 10_000) bool)
    (fun (seed, lseed, warm) ->
      let topo = random_topo seed in
      if warm then ignore (Topology.partition topo);
      let m = Topology.link_count topo in
      let failed =
        Topology.remove_links topo
          [ lseed mod m; (lseed * 7) mod m; m + 5; -1 ]
      in
      csr_consistent failed && csr_consistent topo)

(* Every constructor against the oracle: random dense-id link arrays,
   then a random [remove_links] set (with unknown ids mixed in), then
   [add_as] and [add_links] on the sparse-id result, then one more
   removal.  After each step the arena must equal the oracle's rows
   in content and order, and the partition must agree with it. *)
let prop_constructors_match_oracle =
  QCheck.Test.make ~name:"every constructor builds the oracle's rows"
    ~count:200
    QCheck.(triple (int_range 2 40) (int_range 0 120) (int_range 0 100_000))
    (fun (n, m, seed) ->
      let rng = Sm.create seed in
      let kinds =
        [| Relation.C2p; Relation.Peer_private; Relation.Peer_public |]
      in
      let random_spec ?a () =
        let a = match a with Some a -> a | None -> Sm.next_int rng n in
        let b = (a + 1 + Sm.next_int rng (n - 1)) mod n in
        (a, b, kinds.(Sm.next_int rng 3), Sm.next_int rng 4, 1.)
      in
      let ases =
        Array.init n (fun id ->
            { Asn.id; klass = Asn.Transit; name = ""; footprint = [| 0 |] })
      in
      let links =
        List.init m (fun _ ->
            let a, b, kind, metro, capacity_gbps = random_spec () in
            { Relation.id = 0; a; b; kind; metro; capacity_gbps })
      in
      let t0 = Topology.make ases links in
      let coin p = Sm.next_float rng < p in
      let drop t =
        Array.fold_left
          (fun acc (l : Relation.link) ->
            if coin 0.3 then l.Relation.id :: acc else acc)
          [ -1; Topology.link_count t0 + 3 ]
          (Topology.links t)
      in
      let t1 = Topology.remove_links t0 (drop t0) in
      let t2, cdn =
        Topology.add_as t1 ~klass:Asn.Content ~name:"cdn" ~footprint:[| 0 |]
      in
      let t3 =
        Topology.add_links t2
          (List.init (Sm.next_int rng 8) (fun _ ->
               if coin 0.5 then random_spec ~a:cdn () else random_spec ()))
      in
      let t4 = Topology.remove_links t3 (drop t3) in
      let ids_known t =
        Array.for_all
          (fun (l : Relation.link) -> Topology.link t l.Relation.id = l)
          (Topology.links t)
      in
      List.for_all
        (fun t -> csr_consistent t && ids_known t)
        [ t0; t1; t2; t3; t4 ])

let test_shapes_total () =
  let ok_and_valid shape label =
    match Generator.generate_shape shape with
    | Error e -> Alcotest.failf "%s: unexpected error: %s" label e
    | Ok topo -> check (label ^ " CSR valid") true (csr_consistent topo)
  in
  ok_and_valid Generator.Single "single AS";
  ok_and_valid (Generator.Star 0) "star with no spokes";
  ok_and_valid (Generator.Star 1) "star with one spoke";
  ok_and_valid (Generator.Star 1000) "star 1000";
  ok_and_valid (Generator.Chain 1) "chain of one";
  ok_and_valid (Generator.Chain 2) "chain of two";
  ok_and_valid (Generator.Chain 500) "chain 500";
  let is_error = function Error _ -> true | Ok _ -> false in
  check "negative star is an Error" true
    (is_error (Generator.generate_shape (Generator.Star (-1))));
  check "zero chain is an Error" true
    (is_error (Generator.generate_shape (Generator.Chain 0)));
  check "star over the AS cap is an Error" true
    (is_error (Generator.generate_shape (Generator.Star Topology.max_as_count)));
  check "chain over the AS cap is an Error" true
    (is_error
       (Generator.generate_shape (Generator.Chain (Topology.max_as_count + 1))))

(* The largest valid star: hub AS 0 with 2^20 - 1 stub customers — AS
   ids hit the packed cap exactly and one CSR row holds ~10^6 words. *)
let test_star_at_cap () =
  match Generator.generate_shape (Generator.Star (Topology.max_as_count - 1)) with
  | Error e -> Alcotest.failf "star at cap: unexpected error: %s" e
  | Ok topo ->
      Alcotest.(check int)
        "AS count at cap" Topology.max_as_count (Topology.as_count topo);
      let off = Topology.csr_offsets topo in
      Alcotest.(check int)
        "hub degree" (Topology.max_as_count - 1)
        (off.(1) - off.(0));
      (* Spot-check words rather than run the O(n) full consistency
         scan against the list adjacency (the row is a million wide). *)
      let wrd = Topology.csr_words topo in
      check "hub row words decode to customers" true
        (Topology.pn_rel wrd.(off.(0)) = Relation.To_customer);
      check "spoke row decodes to the hub" true
        (Topology.pn_peer wrd.(off.(Topology.max_as_count - 1)) = 0)

let prop_random_shapes_never_raise =
  QCheck.Test.make ~name:"generate_shape is total on random sizes" ~count:50
    (QCheck.int_range (-3) 3000)
    (fun n ->
      let shapes = [ Generator.Star n; Generator.Chain n ] in
      List.for_all
        (fun s ->
          match Generator.generate_shape s with
          | Ok topo -> csr_consistent topo
          | Error _ -> true)
        shapes)

let test_generate_scale_caps () =
  let is_error = function Error _ -> true | Ok _ -> false in
  check "over the AS cap is an Error" true
    (is_error
       (Generator.generate_scale
          { Generator.scale_params with Generator.sc_stub = Topology.max_as_count }));
  check "negative counts are an Error" true
    (is_error
       (Generator.generate_scale
          { Generator.scale_params with Generator.sc_eyeball = -1 }));
  check "no Tier-1 is an Error" true
    (is_error
       (Generator.generate_scale
          { Generator.scale_params with Generator.sc_tier1 = 0 }))

let test_small_scale_topology () =
  match Generator.generate_scale Generator.small_scale_params with
  | Error e -> Alcotest.failf "small_scale_params: %s" e
  | Ok topo ->
      check "CSR arena consistent" true (csr_consistent topo);
      Alcotest.(check (list Alcotest.string))
        "structural invariants hold" [] (Invariants.check topo);
      (* Deterministic in the seed: a second build is identical. *)
      (match Generator.generate_scale Generator.small_scale_params with
      | Error e -> Alcotest.failf "second build failed: %s" e
      | Ok topo2 ->
          Alcotest.(check int)
            "deterministic link count" (Topology.link_count topo)
            (Topology.link_count topo2));
      (* And the pool fan-out over it matches sequential runs. *)
      let origins = pick_origins topo 3 8 in
      let configs = Array.map (fun origin -> Announce.default ~origin) origins in
      let states = Pool.map (Propagate.run topo) configs in
      Array.iteri
        (fun i st ->
          check
            (Printf.sprintf "scale origin %d fanned-out == solo" origins.(i))
            true
            (Propagate.equal st (Propagate.run topo configs.(i))))
        states

(* Every generated world is pinned by an MD5 of a canonical rendering
   of its AS and link arrays (every field, floats exact as [%h]), so a
   generator rewrite that moves one RNG draw, reorders one link or
   changes one name fails here.  The digests were computed before the
   generator's set-based helpers were replaced. *)
let world_digest topo =
  let b = Buffer.create (1 lsl 16) in
  Array.iter
    (fun (a : Asn.t) ->
      Printf.bprintf b "as %d %s %S" a.Asn.id (Asn.klass_to_string a.Asn.klass)
        a.Asn.name;
      Array.iter (Printf.bprintf b " %d") a.Asn.footprint;
      Buffer.add_char b '\n')
    (Topology.ases topo);
  Array.iter
    (fun (l : Relation.link) ->
      Printf.bprintf b "link %d %d %d %s %d %h\n" l.Relation.id l.Relation.a
        l.Relation.b
        (Relation.kind_to_string l.Relation.kind)
        l.Relation.metro l.Relation.capacity_gbps)
    (Topology.links topo);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_world_digests () =
  let scale name p expected =
    match Generator.generate_scale p with
    | Error e -> Alcotest.failf "%s: %s" name e
    | Ok topo -> Alcotest.(check string) name expected (world_digest topo)
  in
  scale "generate_scale small_scale_params" Generator.small_scale_params
    "405979d53d9e36ff413c62314ca0227d";
  scale "generate_scale 300/1500/6000 at seed 7"
    {
      Generator.scale_params with
      Generator.sc_seed = 7;
      sc_transit = 300;
      sc_eyeball = 1500;
      sc_stub = 6000;
    }
    "4024badf01ded35eb4cf8445cd708873";
  List.iter
    (fun (seed, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "generate default_params at seed %d" seed)
        expected
        (world_digest
           (Generator.generate { Generator.default_params with seed })))
    [
      (42, "84d95af429a239755acec94d680ed8ed");
      (7, "485325f13190aa9387123019c36f1175");
      (43, "1c6a2aa5e0fb242bceed740b67ba635f");
    ]

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pool_equals_sequential;
      prop_sweep_map_equals_sequential;
      prop_pool_provenance_through_cache;
      prop_random_shapes_never_raise;
      prop_removed_links_partition;
      prop_constructors_match_oracle;
    ]
  @ [
      Alcotest.test_case "degenerate shapes build valid CSR arenas" `Quick
        test_shapes_total;
      Alcotest.test_case "star at the 2^20 AS cap" `Slow test_star_at_cap;
      Alcotest.test_case "generate_scale rejects out-of-cap params" `Quick
        test_generate_scale_caps;
      Alcotest.test_case "small scale topology: invariants, CSR, fan-out"
        `Quick
        test_small_scale_topology;
      Alcotest.test_case "generated worlds keep their pinned digests" `Quick
        test_world_digests;
      Alcotest.test_case "scale sweep states equal the Set-based reference"
        `Quick test_sweep_matches_oracle;
      Alcotest.test_case "scale sweep leaves the RIB cache empty" `Quick
        test_sweep_leaves_cache_empty;
    ]
