(* Domain-pool tests: the parallel==sequential contract.  Pool.map
   must be observationally identical to Array.map for any domain
   count — same results, same order, same exception, and (with
   tracing on) byte-identical merged metrics and an identical span
   tree.  Top-level figures built on the pool (robustness sweeps,
   egress shards inside the scenarios) must therefore be
   domain-count-invariant too. *)

module Pool = Netsim_par.Pool
module Topology = Netsim_topo.Topology
module Asn = Netsim_topo.Asn
module Announce = Netsim_bgp.Announce
module Propagate = Netsim_bgp.Propagate
module Metrics = Netsim_obs.Metrics
module Span = Netsim_obs.Span
module Recorder = Netsim_obs.Recorder
module Jsonx = Netsim_obs.Jsonx

let with_domains d f =
  let saved = Pool.domain_count () in
  Pool.set_domain_count d;
  Fun.protect ~finally:(fun () -> Pool.set_domain_count saved) f

let domains_gen = QCheck.int_range 1 4

(* ---- Pool.map == Array.map ---- *)

let prop_map_matches_array_map =
  QCheck.Test.make ~name:"Pool.map equals Array.map (any domain count)"
    ~count:50
    QCheck.(pair domains_gen (array small_int))
    (fun (d, arr) ->
      let f x = (x * 31) + (x mod 7) in
      with_domains d (fun () -> Pool.map f arr) = Array.map f arr)

let prop_nested_map_sequentializes =
  QCheck.Test.make ~name:"nested Pool.map runs and matches nested Array.map"
    ~count:25
    QCheck.(pair domains_gen (int_range 1 20))
    (fun (d, n) ->
      let outer = Array.init n (fun i -> i) in
      let inner i = Array.init (1 + (i mod 5)) (fun j -> (i * 10) + j) in
      let via_pool =
        with_domains d (fun () ->
            Pool.map (fun i -> Pool.map (fun x -> x + 1) (inner i)) outer)
      in
      via_pool = Array.map (fun i -> Array.map (fun x -> x + 1) (inner i)) outer)

(* ---- parallel BGP propagation == sequential ---- *)

let random_topo seed =
  Netsim_topo.Generator.generate
    {
      Netsim_topo.Generator.small_params with
      Netsim_topo.Generator.seed;
      n_tier1 = 2 + (seed mod 3);
      n_transit = 4 + (seed mod 4);
      n_eyeball = 6 + (seed mod 6);
      n_stub = 4 + (seed mod 5);
    }

let prop_parallel_propagation_identical =
  QCheck.Test.make
    ~name:"sharded propagation digests equal sequential (domains 1-4)"
    ~count:15
    (QCheck.pair domains_gen (QCheck.int_range 0 200))
    (fun (d, seed) ->
      let topo = random_topo seed in
      let origins =
        Array.of_list (Topology.by_klass topo Asn.Eyeball)
      in
      let digest_of states =
        Array.to_list (Array.map (Test_util.digest topo) states)
      in
      let seq =
        digest_of
          (Array.map (fun o -> Propagate.run topo (Announce.default ~origin:o)) origins)
      in
      let par =
        with_domains d (fun () ->
            digest_of
              (Pool.map
                 (fun o -> Propagate.run topo (Announce.default ~origin:o))
                 origins))
      in
      par = seq)

(* ---- exceptions ---- *)

let test_exception_propagates () =
  List.iter
    (fun d ->
      match
        with_domains d (fun () ->
            Pool.map
              (fun i -> if i >= 3 then failwith (Printf.sprintf "task %d" i) else i)
              (Array.init 16 (fun i -> i)))
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
          Alcotest.(check string)
            (Printf.sprintf "lowest failing index wins at %d domains" d)
            "task 3" msg)
    [ 1; 2; 4 ]

let test_empty_and_singleton () =
  List.iter
    (fun d ->
      with_domains d (fun () ->
          Alcotest.(check (array int)) "empty" [||] (Pool.map (fun x -> x) [||]);
          Alcotest.(check (array int)) "singleton" [| 9 |]
            (Pool.map (fun x -> x + 4) [| 5 |])))
    [ 1; 4 ]

let test_domain_count_clamped () =
  let saved = Pool.domain_count () in
  Fun.protect ~finally:(fun () -> Pool.set_domain_count saved) @@ fun () ->
  Pool.set_domain_count 0;
  Alcotest.(check int) "clamped up to 1" 1 (Pool.domain_count ());
  Pool.set_domain_count 1000;
  Alcotest.(check int) "clamped down to 64" 64 (Pool.domain_count ())

(* ---- robustness sweep is domain-count-invariant ---- *)

let test_robustness_domain_invariant () =
  let run d =
    with_domains d (fun () ->
        Beatbgp.Robustness.run ~seeds:[ 42; 43 ]
          ~sizes:Beatbgp.Scenario.test_sizes ())
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check bool)
    "claim summaries identical (values, pass rates, order)" true
    (r1.Beatbgp.Robustness.claims = r4.Beatbgp.Robustness.claims);
  Alcotest.(check bool) "figures identical" true
    (Beatbgp.Figure.to_csv r1.Beatbgp.Robustness.figure
    = Beatbgp.Figure.to_csv r4.Beatbgp.Robustness.figure);
  Alcotest.(check (float 0.)) "pass rate identical"
    r1.Beatbgp.Robustness.all_pass_rate r4.Beatbgp.Robustness.all_pass_rate

(* ---- merged observability is byte-identical ---- *)

let rec span_shape (i : Span.info) =
  Printf.sprintf "%s/%d%s(%s)" i.Span.i_name i.Span.i_calls
    (String.concat ""
       (List.map (fun (n, v) -> Printf.sprintf "[%s=%d]" n v) i.Span.i_counters))
    (String.concat ";" (List.map span_shape i.Span.i_children))

let traced_run d =
  with_domains d (fun () ->
      Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Metrics.set_enabled false;
          Metrics.reset ();
          Span.reset ())
        (fun () ->
          Metrics.reset ();
          Span.reset ();
          Span.with_ ~name:"t.par.fanout" (fun () ->
              ignore
                (Pool.map
                   (fun (i, o) ->
                     Span.with_ ~name:"t.par.task" (fun () ->
                         Metrics.add (Metrics.counter "t.par.work") (i + 1);
                         Metrics.observe
                           (Metrics.histogram "t.par.obs")
                           (float_of_int (i * 7) +. 0.5);
                         let topo = random_topo 3 in
                         ignore (Propagate.run topo (Announce.default ~origin:o));
                         i))
                   (Array.of_list
                      (List.mapi
                         (fun i o -> (i, o))
                         (Topology.by_klass (random_topo 3) Asn.Eyeball)))));
          ( Jsonx.to_string (Metrics.to_json ()),
            String.concat "," (List.map span_shape (Span.tree ())) )))

let test_metrics_byte_identical () =
  let j1, s1 = traced_run 1 in
  let j4, s4 = traced_run 4 in
  Alcotest.(check string) "metrics JSON byte-identical (1 vs 4 domains)" j1 j4;
  Alcotest.(check string) "span tree identical (1 vs 4 domains)" s1 s4

(* Every span of an [all]-style run closes inside a pool task, where
   no GC sample is taken; the fan-in must still leave the gc.* runtime
   gauges behind, at any domain count. *)
let test_pooled_spans_sample_gc () =
  List.iter
    (fun d ->
      with_domains d @@ fun () ->
      Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Metrics.set_enabled false;
          Metrics.reset ();
          Span.reset ())
        (fun () ->
          Metrics.reset ();
          Span.reset ();
          ignore
            (Pool.map
               (fun i -> Span.with_ ~name:"t.par.gc" (fun () -> i))
               (Array.init 4 Fun.id));
          let names = List.map fst (Metrics.runtime_rows ()) in
          List.iter
            (fun g ->
              Alcotest.(check bool)
                (Printf.sprintf "%s sampled at %d domains" g d)
                true (List.mem g names))
            [
              "gc.heap_words";
              "gc.major_collections";
              "gc.minor_collections";
              "gc.promoted_words";
            ]))
    [ 1; 4 ]

(* ---- a failing task: same fan-in rule at every domain count ---- *)

(* Run [body] with metrics and the flight recorder on, from empty
   state, and return the metrics JSON, the span shape and the event
   log it leaves. *)
let observed d body =
  with_domains d (fun () ->
      let recording = Recorder.enabled () in
      Metrics.set_enabled true;
      Recorder.set_enabled true;
      let clear () =
        Metrics.reset ();
        Span.reset ();
        Recorder.reset ()
      in
      Fun.protect
        ~finally:(fun () ->
          Metrics.set_enabled false;
          Recorder.set_enabled recording;
          clear ())
        (fun () ->
          clear ();
          body ();
          ( Jsonx.to_string (Metrics.to_json ()),
            String.concat "," (List.map span_shape (Span.tree ())),
            Recorder.to_jsonl () )))

let test_failing_task_obs_domain_invariant () =
  let c = Metrics.counter "t.par.fail.work" in
  let h = Metrics.histogram "t.par.fail.obs" in
  let run d =
    observed d (fun () ->
        match
          Span.with_ ~name:"t.par.fail" (fun () ->
              Pool.map
                (fun i ->
                  Span.with_ ~name:"t.par.fail.task" (fun () ->
                      Metrics.incr c;
                      Metrics.observe h (float_of_int i +. 0.5);
                      Recorder.record ~kind:"t.par.fail"
                        [ Recorder.I ("task", i) ];
                      if i = 2 then failwith "task 2";
                      i))
                (Array.init 4 Fun.id))
        with
        | _ -> Alcotest.fail "expected task 2 to raise"
        | exception Failure msg ->
            Alcotest.(check string) "lowest failing task surfaces" "task 2" msg;
            Alcotest.(check int)
              (Printf.sprintf "tasks 0 and 1 counted at %d domains" d)
              2 (Metrics.counter_value c))
  in
  let j1, s1, e1 = run 1 and j4, s4, e4 = run 4 in
  Alcotest.(check string) "metrics JSON byte-identical (1 vs 4 domains)" j1 j4;
  Alcotest.(check string) "span shape identical (1 vs 4 domains)" s1 s4;
  Alcotest.(check string) "event log byte-identical (1 vs 4 domains)" e1 e4

let test_nested_map_obs_domain_invariant () =
  let outer = Metrics.counter "t.par.nest.outer" in
  let inner = Metrics.counter "t.par.nest.inner" in
  let h = Metrics.histogram "t.par.nest.obs" in
  let run d =
    observed d (fun () ->
        ignore
          (Pool.map
             (fun i ->
               Span.with_ ~name:"t.par.nest" (fun () ->
                   Metrics.incr outer;
                   Pool.map
                     (fun j ->
                       Metrics.add inner (j + 1);
                       Metrics.observe h (float_of_int ((i * 10) + j) +. 0.25);
                       Recorder.record ~kind:"t.par.nest"
                         [ Recorder.I ("i", i); Recorder.I ("j", j) ];
                       j)
                     (Array.init (1 + (i mod 3)) Fun.id)))
             (Array.init 6 Fun.id)))
  in
  let j1, s1, e1 = run 1 and j4, s4, e4 = run 4 in
  Alcotest.(check string) "nested metrics JSON byte-identical (1 vs 4)" j1 j4;
  Alcotest.(check string) "nested span shape identical (1 vs 4)" s1 s4;
  Alcotest.(check string) "nested event log byte-identical (1 vs 4)" e1 e4

(* ---- merged metrics equal a direct run ---- *)

(* A random program of counter adds and histogram observations, cut
   into (possibly nested) pool tasks.  Run through the pool, it must
   leave what running every step in turn leaves: the same counters,
   buckets, counts, extremes and quantiles, and the same mean and total
   up to the rounding of a summary merge. *)

type step = Add of int * int | Observe of int * float | Map of step list list

let prop_counters =
  Array.init 3 (fun i -> Metrics.counter (Printf.sprintf "t.par.prop.c%d" i))

let prop_hists =
  Array.init 3 (fun i -> Metrics.histogram (Printf.sprintf "t.par.prop.h%d" i))

let rec exec ~pooled steps =
  List.iter
    (function
      | Add (c, n) -> Metrics.add prop_counters.(c) n
      | Observe (h, v) -> Metrics.observe prop_hists.(h) v
      | Map tasks ->
          if pooled then ignore (Pool.map (exec ~pooled) (Array.of_list tasks))
          else List.iter (exec ~pooled) tasks)
    steps

(* Cut [steps] into consecutive runs of 1-4; each run stays inline or,
   while [depth] allows, becomes one [Map] whose tasks are cut again. *)
let rec split rs depth steps =
  let rec runs = function
    | [] -> []
    | l ->
        let k = 1 + Random.State.int rs (Stdlib.min 4 (List.length l)) in
        List.filteri (fun i _ -> i < k) l :: runs (List.filteri (fun i _ -> i >= k) l)
  in
  List.concat_map
    (fun run ->
      if depth > 0 && Random.State.bool rs then
        [ Map (List.map (split rs (depth - 1)) (runs run)) ]
      else run)
    (runs steps)

let program_gen =
  let open QCheck.Gen in
  let step =
    oneof
      [
        map2 (fun c n -> Add (c, n)) (int_bound 2) (int_range (-5) 50);
        map2
          (fun h e -> Observe (h, 10. ** e))
          (int_bound 2) (float_range (-4.) 8.);
      ]
  in
  map2 (fun steps seed -> split (Random.State.make [| seed |]) 3 steps)
    (list_size (int_range 1 60) step)
    int

let merged ~pooled d prog =
  with_domains d (fun () ->
      Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Metrics.set_enabled false;
          Metrics.reset ())
        (fun () ->
          Metrics.reset ();
          exec ~pooled prog;
          let mine n = String.starts_with ~prefix:"t.par.prop." n in
          ( List.filter (fun (n, _) -> mine n) (Metrics.counter_rows ()),
            List.filter (fun (n, _, _) -> mine n) (Metrics.histogram_export ()),
            List.filter_map
              (fun r ->
                if mine r.Metrics.hr_name then
                  Some Metrics.(r.hr_p50, r.hr_p90, r.hr_p99)
                else None)
              (Metrics.histogram_rows ()),
            Jsonx.to_string (Metrics.to_json ()) )))

let close a b =
  (Float.is_nan a && Float.is_nan b)
  || Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

let prop_merged_equals_direct =
  QCheck.Test.make ~name:"merged metrics equal a direct run (domains 1, 4)"
    ~count:100 (QCheck.make program_gen) (fun prog ->
      let module S = Netsim_stats.Summary in
      let c0, h0, q0, _ = merged ~pooled:false 1 prog in
      let same (c, h, q, _) =
        c = c0
        && compare q q0 = 0 (* an empty histogram's quantiles are nan *)
        && List.for_all2
             (fun (n0, b0, s0) (n, b, s) ->
               n = n0 && b = b0
               && S.count s = S.count s0
               && S.min s = S.min s0
               && S.max s = S.max s0
               && close (S.mean s) (S.mean s0)
               && close (S.total s) (S.total s0))
             h0 h
      in
      let ((_, _, _, j1) as r1) = merged ~pooled:true 1 prog in
      let ((_, _, _, j4) as r4) = merged ~pooled:true 4 prog in
      same r1 && same r4 && j1 = j4)

(* ---- traced scenario: end-to-end through the egress shard ---- *)

let test_scenario_trace_domain_invariant () =
  let run d =
    with_domains d (fun () ->
        Metrics.set_enabled true;
        Fun.protect
          ~finally:(fun () ->
            Metrics.set_enabled false;
            Metrics.reset ();
            Span.reset ())
          (fun () ->
            Metrics.reset ();
            Span.reset ();
            ignore
              (Beatbgp.Scenario.facebook ~sizes:Beatbgp.Scenario.test_sizes ());
            ( Jsonx.to_string (Metrics.to_json ()),
              String.concat "," (List.map span_shape (Span.tree ())) )))
  in
  let j1, s1 = run 1 and j4, s4 = run 4 in
  Alcotest.(check string) "scenario metrics JSON byte-identical" j1 j4;
  Alcotest.(check string) "scenario span tree identical" s1 s4

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_map_matches_array_map;
      prop_nested_map_sequentializes;
      prop_parallel_propagation_identical;
      prop_merged_equals_direct;
    ]
  @ [
      Alcotest.test_case "exceptions propagate (lowest index)" `Quick
        test_exception_propagates;
      Alcotest.test_case "empty and singleton inputs" `Quick
        test_empty_and_singleton;
      Alcotest.test_case "domain count clamped to [1, 64]" `Quick
        test_domain_count_clamped;
      Alcotest.test_case "robustness sweep domain-invariant" `Slow
        test_robustness_domain_invariant;
      Alcotest.test_case "merged metrics byte-identical" `Quick
        test_metrics_byte_identical;
      Alcotest.test_case "pooled spans leave gc gauges" `Quick
        test_pooled_spans_sample_gc;
      Alcotest.test_case "failing task obs domain-invariant" `Quick
        test_failing_task_obs_domain_invariant;
      Alcotest.test_case "nested map obs domain-invariant" `Quick
        test_nested_map_obs_domain_invariant;
      Alcotest.test_case "scenario trace domain-invariant" `Slow
        test_scenario_trace_domain_invariant;
    ]
