(* Microbenchmark of the propagation core and the RIB cache:

     dune exec bench/micro_propagate.exe -- [--out FILE] [--history FILE]
       [--gate] [--gate-trend] [--gate-overhead] [iters]

   Measures (a) ns/run of the level-drain/flat-array core
   ([Propagate.run]) against the Set-based reference [Oracle.run]
   (test/oracle) on the default topology scale, verifying
   bit-identical results while at it, and (b) the RIB-cache hit rate
   on a figure-shaped workload (the repeated per-origin runs the
   egress / anycast / availability layers issue).  Writes the numbers
   as JSON (default BENCH_core.json) and appends a history record to
   BENCH_history.jsonl.

   --gate enforces the PR acceptance bound: the optimized core must be
   >= 2x faster than the reference; exits non-zero otherwise (used by
   the CI bench smoke).  --gate-trend fails when a tracked metric
   regresses > 15% against the median of the last 5 history records.
   --gate-overhead is the obs.overhead self-check: the
   disabled-telemetry core ns/run must stay within 2% of its history
   median (the "instrumentation stays free when off" bound).
   NETSIM_TRACE=1 measures enabled-instrumentation cost instead. *)

module Topology = Netsim_topo.Topology
module Announce = Netsim_bgp.Announce
module Propagate = Netsim_bgp.Propagate
module Rib_cache = Netsim_bgp.Rib_cache
module Jsonx = Netsim_obs.Jsonx

let time_ns f iters =
  f () (* warm-up *);
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let history = ref Bench_support.Trend.default_history in
  let gate_trend = ref false in
  let gate_overhead = ref false in
  let rec parse ~out ~gate ~iters = function
    | [] -> (out, gate, iters)
    | "--out" :: file :: rest -> parse ~out:file ~gate ~iters rest
    | "--history" :: file :: rest ->
        history := file;
        parse ~out ~gate ~iters rest
    | "--gate" :: rest -> parse ~out ~gate:true ~iters rest
    | "--gate-trend" :: rest ->
        gate_trend := true;
        parse ~out ~gate ~iters rest
    | "--gate-overhead" :: rest ->
        gate_overhead := true;
        parse ~out ~gate ~iters rest
    | n :: rest -> parse ~out ~gate ~iters:(int_of_string n) rest
  in
  let out, gate, iters = parse ~out:"BENCH_core.json" ~gate:false ~iters:500 args in
  let topo =
    Netsim_topo.Generator.generate Netsim_topo.Generator.default_params
  in
  let dest =
    List.hd (Topology.by_klass topo Netsim_topo.Asn.Eyeball)
  in
  let config = Announce.default ~origin:dest in
  (* The two cores must agree before their timings mean anything, and
     the provenance-instrumented run must select identical routes. *)
  if not (Propagate.equal (Propagate.run topo config) (Oracle.run topo config))
  then begin
    print_string "FAIL: optimized and reference propagation disagree\n";
    exit 1
  end;
  if
    not
      (Propagate.equal
         (Propagate.run ~provenance:true topo config)
         (Propagate.run ~provenance:false topo config))
  then begin
    print_string "FAIL: provenance-instrumented propagation changes routes\n";
    exit 1
  end;
  (* optimized_ns runs with provenance off (the default), so the
     existing --gate-overhead bound doubles as the "provenance is free
     when disabled" check. *)
  let opt_ns =
    time_ns (fun () -> ignore (Propagate.run ~provenance:false topo config)) iters
  in
  let prov_ns =
    time_ns (fun () -> ignore (Propagate.run ~provenance:true topo config)) iters
  in
  let ref_ns =
    time_ns (fun () -> ignore (Oracle.run topo config)) iters
  in
  let speedup = ref_ns /. opt_ns in
  (* Figure-shaped cache workload: the availability sweep recomputes
     the same healthy baseline for every failed site, the egress and
     anycast layers re-run a handful of per-origin configs.  Model it
     as [sites] rounds of (1 baseline + 1 fresh per-site config),
     measured against a cold private shard. *)
  let sites = 20 in
  let eyeballs =
    Array.of_list (Topology.by_klass topo Netsim_topo.Asn.Eyeball)
  in
  let hit_rate, cached_ns =
    Rib_cache.capture (Rib_cache.fresh_shard ()) @@ fun () ->
    Rib_cache.clear ();
    let t0 = Unix.gettimeofday () in
    for s = 0 to sites - 1 do
      ignore (Rib_cache.run topo config);
      ignore
        (Rib_cache.run topo
           (Announce.default ~origin:eyeballs.(s mod Array.length eyeballs)))
    done;
    let elapsed_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
    let lookups = Rib_cache.hits () + Rib_cache.misses () in
    ( float_of_int (Rib_cache.hits ()) /. float_of_int lookups,
      elapsed_ns /. float_of_int lookups )
  in
  Printf.printf
    "propagate: %d iters  optimized %.0f ns/run  reference %.0f ns/run  \
     speedup %.2fx\n\
     provenance: %.0f ns/run instrumented (%+.1f%% over disabled)\n\
     rib-cache: figure-shaped workload  hit rate %.2f  %.0f ns/lookup\n"
    iters opt_ns ref_ns speedup prov_ns
    (100. *. ((prov_ns /. opt_ns) -. 1.))
    hit_rate cached_ns;
  Bench_support.Bench_out.write ~out ~bench:"core"
    [
      ("iters", Jsonx.Int iters);
      ("as_count", Jsonx.Int (Topology.as_count topo));
      ("link_count", Jsonx.Int (Topology.link_count topo));
      ("optimized_ns", Jsonx.Float opt_ns);
      ("provenance_ns", Jsonx.Float prov_ns);
      ("reference_ns", Jsonx.Float ref_ns);
      ("speedup", Jsonx.Float speedup);
      ("cache_hit_rate", Jsonx.Float hit_rate);
      ("cache_ns_per_lookup", Jsonx.Float cached_ns);
    ];
  let metrics =
    Bench_support.Trend.
      [
        metric "optimized_ns" opt_ns;
        metric "provenance_ns" prov_ns;
        metric "cache_ns_per_lookup" cached_ns;
        metric ~lower_better:false "cache_hit_rate" hit_rate;
      ]
  in
  (* Gates read the records that existed before this run; the current
     run is appended after, so a regression can't dilute its own
     baseline. *)
  let trend_ok =
    (not !gate_trend)
    || Bench_support.Trend.gate ~history:!history ~bench:"core"
         ~label:"gate-trend" metrics
  in
  let overhead_ok =
    (not !gate_overhead)
    || Bench_support.Trend.gate ~history:!history ~tolerance:0.02
         ~bench:"core" ~label:"gate-overhead"
         [ Bench_support.Trend.metric "optimized_ns" opt_ns ]
  in
  Bench_support.Trend.append ~history:!history ~bench:"core" metrics;
  if gate && speedup < 2. then begin
    Printf.printf
      "FAIL: optimized propagation under 2x faster than the Set-based \
       reference\n";
    exit 1
  end;
  if not (trend_ok && overhead_ok) then exit 1
