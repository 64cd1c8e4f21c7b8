(* RIB-cache semantics: hits on repeated (topology, config), misses
   after a topology change (generation bump via remove_links /
   reconverge), LRU eviction at the capacity bound, and isolation of
   the disable switch.  The returned states must always be the exact
   cached-or-fresh [Propagate.run] result — callers cannot tell the
   difference. *)

module Topology = Netsim_topo.Topology
module Announce = Netsim_bgp.Announce
module Propagate = Netsim_bgp.Propagate
module Rib_cache = Netsim_bgp.Rib_cache

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Every test runs against a private shard with a saved/restored
   capacity, so tests neither see each other's entries nor the
   session shard of the surrounding suite. *)
let isolated ?(capacity = 64) f =
  let saved_cap = Rib_cache.capacity () in
  let saved_enabled = Rib_cache.enabled () in
  Rib_cache.set_capacity capacity;
  Rib_cache.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Rib_cache.set_capacity saved_cap;
      Rib_cache.set_enabled saved_enabled)
    (fun () -> Rib_cache.capture (Rib_cache.fresh_shard ()) f)

let test_hit_on_repeat () =
  isolated @@ fun () ->
  let topo = Fixture.topo () in
  let config = Announce.default ~origin:Fixture.cp in
  let s1 = Rib_cache.run topo config in
  let s2 = Rib_cache.run topo config in
  check_int "one miss" 1 (Rib_cache.misses ());
  check_int "one hit" 1 (Rib_cache.hits ());
  check "cached state is the same value" true (s1 == s2);
  (* A structurally equal but distinct config hits too: the key is
     content-addressed, not physical. *)
  let s3 = Rib_cache.run topo (Announce.default ~origin:Fixture.cp) in
  check_int "content hit" 2 (Rib_cache.hits ());
  check "still the same value" true (s1 == s3)

let test_distinct_configs_miss () =
  isolated @@ fun () ->
  let topo = Fixture.topo () in
  let _ = Rib_cache.run topo (Announce.default ~origin:Fixture.cp) in
  let _ = Rib_cache.run topo (Announce.default ~origin:Fixture.eb) in
  let _ =
    Rib_cache.run topo
      (Announce.only_at_metros ~origin:Fixture.cp [ Fixture.ny ])
  in
  check_int "three distinct keys" 3 (Rib_cache.misses ());
  check_int "no hits" 0 (Rib_cache.hits ())

let test_generation_invalidates () =
  isolated @@ fun () ->
  let topo = Fixture.topo () in
  let config = Announce.default ~origin:Fixture.cp in
  let s_before = Rib_cache.run topo config in
  (* Same link set rebuilt from scratch: still a different topology
     value, so it must miss (stamps are identity, not content). *)
  let failed = Topology.remove_links topo [ 0 ] in
  let s_failed = Rib_cache.run failed config in
  check_int "failed topology misses" 2 (Rib_cache.misses ());
  check "failed state differs" false (Propagate.equal s_before s_failed);
  (* The original topology value still hits: removal did not disturb
     its entry. *)
  let s_again = Rib_cache.run topo config in
  check "original still cached" true (s_before == s_again);
  check_int "original hits" 1 (Rib_cache.hits ());
  (* The failed state matches a direct uncached run. *)
  check "failed state correct" true
    (Propagate.equal s_failed (Propagate.run failed config))

let test_lru_eviction () =
  isolated ~capacity:2 @@ fun () ->
  let topo = Fixture.topo () in
  let cfg origin = Announce.default ~origin in
  let _ = Rib_cache.run topo (cfg Fixture.cp) in
  let _ = Rib_cache.run topo (cfg Fixture.eb) in
  check_int "at capacity" 2 (Rib_cache.size ());
  (* Touch cp so eb becomes the LRU victim. *)
  let _ = Rib_cache.run topo (cfg Fixture.cp) in
  let _ = Rib_cache.run topo (cfg Fixture.st) in
  check_int "bounded" 2 (Rib_cache.size ());
  let _ = Rib_cache.run topo (cfg Fixture.cp) in
  check_int "cp survived (recently used)" 2 (Rib_cache.hits ());
  let misses_before = Rib_cache.misses () in
  let _ = Rib_cache.run topo (cfg Fixture.eb) in
  check_int "eb was evicted" (misses_before + 1) (Rib_cache.misses ())

let test_disabled_bypasses () =
  isolated @@ fun () ->
  Rib_cache.set_enabled false;
  let topo = Fixture.topo () in
  let config = Announce.default ~origin:Fixture.cp in
  let s1 = Rib_cache.run topo config in
  let s2 = Rib_cache.run topo config in
  check_int "no entries" 0 (Rib_cache.size ());
  check_int "no hits" 0 (Rib_cache.hits ());
  check_int "no misses" 0 (Rib_cache.misses ());
  check "distinct states" true (s1 != s2);
  check "equal results" true (Propagate.equal s1 s2)

let test_absorb_merges () =
  isolated @@ fun () ->
  let topo = Fixture.topo () in
  let config = Announce.default ~origin:Fixture.cp in
  (* A task computes into its own shard; after absorb the parent hits
     on the same key — the cross-Pool.map reuse path. *)
  let task = Rib_cache.fresh_shard () in
  let s_task = Rib_cache.capture task (fun () -> Rib_cache.run topo config) in
  check_int "parent untouched during capture" 0 (Rib_cache.size ());
  Rib_cache.absorb task;
  check_int "entry merged" 1 (Rib_cache.size ());
  check_int "miss total merged" 1 (Rib_cache.misses ());
  let s_parent = Rib_cache.run topo config in
  check "parent hits the task's entry" true (s_task == s_parent);
  check_int "hit recorded" 1 (Rib_cache.hits ())

(* ---- lookups through the pool ----------------------------------------- *)

(* Every pool task looks up against a fresh shard that is absorbed into
   the caller's after the join, in submission order, so a workload fanned
   out with [Pool.map] / [Pool.map_batches] leaves the same counters,
   entries and recency order at any domain count. *)

module Pool = Netsim_par.Pool

let with_domains d f =
  let saved = Pool.domain_count () in
  Pool.set_domain_count d;
  Fun.protect ~finally:(fun () -> Pool.set_domain_count saved) f

let cfg origin = Announce.default ~origin

(* A [map_batches] chunk is one task and so one shard: repeated keys
   inside it count one miss and then hit, exactly as the sequential
   loop does. *)
let test_batch_dedups_misses () =
  let topo = Fixture.topo () in
  let workload =
    [| cfg Fixture.cp; cfg Fixture.eb; cfg Fixture.cp; cfg Fixture.cp;
       cfg Fixture.eb |]
  in
  (* Baseline: the sequential loop's counters and states. *)
  let seq_states, seq_hits, seq_misses =
    isolated @@ fun () ->
    let sts = Array.map (fun c -> Rib_cache.run topo c) workload in
    (sts, Rib_cache.hits (), Rib_cache.misses ())
  in
  with_domains 2 @@ fun () ->
  isolated @@ fun () ->
  let sts =
    Pool.map_batches ~batch:(Array.length workload)
      (Array.map (Rib_cache.run topo))
      workload
  in
  check_int "two misses for two distinct keys" 2 (Rib_cache.misses ());
  check_int "duplicates hit, not double-miss" 3 (Rib_cache.hits ());
  check_int "misses equal the sequential loop" seq_misses (Rib_cache.misses ());
  check_int "hits equal the sequential loop" seq_hits (Rib_cache.hits ());
  check "duplicate keys share one cached state" true
    (sts.(0) == sts.(2) && sts.(2) == sts.(3) && sts.(1) == sts.(4));
  Array.iteri
    (fun i st ->
      check
        (Printf.sprintf "state %d equals sequential" i)
        true
        (Propagate.equal st seq_states.(i)))
    sts

let test_batch_provenance_upgrade () =
  with_domains 2 @@ fun () ->
  isolated @@ fun () ->
  let topo = Fixture.topo () in
  let config = cfg Fixture.cp in
  (* One task: a plain lookup, then two provenance lookups of the same
     key.  The first provenance request against the plain entry
     regenerates — counted as a miss, never served stale without an
     arena — and the upgraded entry satisfies the second. *)
  let sts =
    Pool.map_batches ~batch:3
      (Array.map (fun pv -> Rib_cache.run ~provenance:pv topo config))
      [| false; true; true |]
  in
  check_int "plain entry, then the upgrade: two misses" 2 (Rib_cache.misses ());
  check_int "upgraded entry hits" 1 (Rib_cache.hits ());
  check "plain state carries no arena" false (Propagate.has_provenance sts.(0));
  check "hit returns the upgraded state" true (sts.(1) == sts.(2));
  check "provenance arena matches a fresh run" true
    (Propagate.provenance_equal sts.(2)
       (Propagate.run ~provenance:true topo config));
  (* The absorbed entry is the upgraded one: the caller's own
     provenance lookup hits it. *)
  let s = Rib_cache.run ~provenance:true topo config in
  check "caller hits the absorbed upgrade" true (s == sts.(2));
  check_int "caller hit recorded" 2 (Rib_cache.hits ())

let test_batch_generation_invalidates () =
  isolated @@ fun () ->
  let topo = Fixture.topo () in
  let workload = [| cfg Fixture.cp; cfg Fixture.eb; cfg Fixture.st |] in
  let run_all t = Array.map (Rib_cache.run t) workload in
  let _ = run_all topo in
  let _ = run_all topo in
  check_int "warm batch all hits" 3 (Rib_cache.hits ());
  (* One generation bump must invalidate every origin of the batch. *)
  let failed = Topology.remove_links topo [ Fixture.l_t1_peer ] in
  let sts = run_all failed in
  check_int "all origins miss after the bump" 6 (Rib_cache.misses ());
  check_int "no stale hits" 3 (Rib_cache.hits ());
  Array.iteri
    (fun i st ->
      check
        (Printf.sprintf "post-bump state %d is fresh and correct" i)
        true
        (Propagate.equal st (Propagate.run failed workload.(i))))
    sts;
  (* The original topology value's entries were not disturbed. *)
  let _ = run_all topo in
  check_int "original batch still hits" 6 (Rib_cache.hits ())

(* Drive a capacity-bounded workload through the pool and read back
   every observable of the shard: counters, size, and the eviction
   order (probed as the hit/miss pattern of a fixed key sequence,
   which is itself LRU-mutating — so it only matches if the full
   recency order matched to begin with). *)
let lru_observables ~domains topo =
  with_domains domains @@ fun () ->
  isolated ~capacity:3 @@ fun () ->
  let workload =
    Array.map cfg
      [| Fixture.cp; Fixture.eb; Fixture.st; Fixture.cp; Fixture.tr;
         Fixture.t1a; Fixture.cp; Fixture.eb |]
  in
  let _ = Pool.map (Rib_cache.run topo) workload in
  let hits = Rib_cache.hits ()
  and misses = Rib_cache.misses ()
  and size = Rib_cache.size () in
  let probe =
    List.map
      (fun o ->
        let h = Rib_cache.hits () in
        ignore (Rib_cache.run topo (cfg o));
        Rib_cache.hits () > h)
      [ Fixture.cp; Fixture.eb; Fixture.st; Fixture.tr; Fixture.t1a;
        Fixture.st ]
  in
  (hits, misses, size, probe)

let test_batch_lru_domain_independent () =
  let topo = Fixture.topo () in
  let h1, m1, s1, p1 = lru_observables ~domains:1 topo in
  let h4, m4, s4, p4 = lru_observables ~domains:4 topo in
  check_int "hits identical at domains 1 and 4" h1 h4;
  check_int "misses identical at domains 1 and 4" m1 m4;
  check_int "shard size identical at domains 1 and 4" s1 s4;
  Alcotest.(check (list bool))
    "eviction order identical at domains 1 and 4" p1 p4

let suite =
  [
    Alcotest.test_case "hit on repeated (topo, config)" `Quick
      test_hit_on_repeat;
    Alcotest.test_case "distinct configs are distinct keys" `Quick
      test_distinct_configs_miss;
    Alcotest.test_case "generation bump invalidates" `Quick
      test_generation_invalidates;
    Alcotest.test_case "LRU eviction at the bound" `Quick test_lru_eviction;
    Alcotest.test_case "disabled cache bypasses" `Quick test_disabled_bypasses;
    Alcotest.test_case "absorb merges task shards" `Quick test_absorb_merges;
    Alcotest.test_case "batch dedups repeated keys like the loop" `Quick
      test_batch_dedups_misses;
    Alcotest.test_case "batch provenance upgrade counts as a miss" `Quick
      test_batch_provenance_upgrade;
    Alcotest.test_case "generation bump invalidates a whole batch" `Quick
      test_batch_generation_invalidates;
    Alcotest.test_case "batch LRU order identical at domains 1 vs 4" `Quick
      test_batch_lru_domain_independent;
  ]
