(* Unit tests of the benchmark harness's accounting: the tail-quantile
   rule, span-tree flattening, open-loop timing against a fake clock,
   response checking and frame parsing, and the agreement of
   BENCHMARK.json with the metric tables the harness prints. *)

open E2e
module Span = Netsim_obs.Span
module Jsonx = Netsim_obs.Jsonx

let close = Alcotest.(check (float 1e-9))

(* ---- tail quantiles --------------------------------------------------- *)

let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let label a = Option.map (fun (t : Tail.tail) -> t.Tail.label) (Tail.tail a)

let test_tail_rule () =
  let lbl = Alcotest.(check (option string)) in
  lbl "19 samples support no percentile" None (label (ramp 19));
  lbl "20 samples: p50 has 10 beyond" (Some "p50") (label (ramp 20));
  lbl "100 samples: p90" (Some "p90") (label (ramp 100));
  lbl "999 samples: still p90" (Some "p90") (label (ramp 999));
  lbl "1000 samples: p99" (Some "p99") (label (ramp 1000));
  lbl "10000 samples: p99.9" (Some "p99.9") (label (ramp 10000));
  (match Tail.tail (ramp 1000) with
  | Some t ->
      close "p99 of 1..1000 is the 990th value" 990. t.Tail.value;
      Alcotest.(check int) "n travels with it" 1000 t.Tail.n;
      Alcotest.(check int) "exactly 10 samples beyond" 10 (Tail.beyond 1000 0.99)
  | None -> Alcotest.fail "no tail");
  close "median of 1..5" 3. (Tail.median [| 5.; 1.; 4.; 2.; 3. |])

(* ---- span flattening --------------------------------------------------- *)

let node ?(children = []) name total self =
  {
    Span.i_name = name;
    i_calls = 1;
    i_total_ms = total;
    i_self_ms = self;
    i_counters = [];
    i_children = children;
  }

let synthetic =
  [
    node "e2e.runner.fig1" 100. 10.
      ~children:
        [
          node "e2e.scenario" 40. 5.
            ~children:
              [
                node "scenario.facebook" 35. 5.
                  ~children:
                    [ node "topo.generate" 20. 20.; node "bgp.propagate" 10. 10. ];
              ];
          node "e2e.run" 50. 20. ~children:[ node "measure.edge_window" 30. 30. ];
        ];
    node "mystery.span" 7. 7.;
  ]

let test_flatten () =
  let rows, unknown = Layers.flatten synthetic in
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0. rows in
  close "layer rows + unattributed = total of the roots" 0.107 sum;
  close "topo" 0.020 (List.assoc "topo.generate_s" rows);
  close "cdn: harness and scenario self time" 0.010 (List.assoc "cdn.build_s" rows);
  close "latency" 0.030 (List.assoc "latency.sample_s" rows);
  close "core" 0.020 (List.assoc "core.aggregate_s" rows);
  close "runner glue and unknown spans" 0.017 (List.assoc Layers.unattributed rows);
  Alcotest.(check (list string)) "unknown names reported" [ "mystery.span" ] unknown;
  Alcotest.(check int) "calls" 1 (Layers.calls "bgp.propagate" synthetic)

(* Every literal span name under lib/ must have one row in the table. *)
let lib_span_names () =
  let marker = "Span.with_ ~name:\"" in
  let names = ref [] in
  let rec walk dir =
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then walk p
        else if Filename.check_suffix f ".ml" then begin
          let ic = open_in_bin p in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          let rec scan i =
            match Str.search_forward (Str.regexp_string marker) s i with
            | j ->
                let start = j + String.length marker in
                let stop = String.index_from s start '"' in
                names := String.sub s start (stop - start) :: !names;
                scan stop
            | exception Not_found -> ()
          in
          scan 0
        end)
      (Sys.readdir dir)
  in
  walk "../../lib";
  List.sort_uniq compare !names

let test_every_lib_span_has_a_layer () =
  let names = lib_span_names () in
  Alcotest.(check bool) "found the library's spans" true (List.length names >= 20);
  List.iter
    (fun n ->
      if Layers.layer_of n = None then Alcotest.failf "span %S has no layer row" n)
    names;
  let keys = List.map fst Layers.table in
  Alcotest.(check int) "no span name listed twice" (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* ---- open-loop accounting ---------------------------------------------- *)

(* A server that answers every request 1 ms after it is sent, and a
   generator that stalls for 50 ms the first time it waits at or after
   t = 100 ms. *)
let fake_io () =
  let clock = ref 0. and stalled = ref false in
  let inflight = ref [] in
  let io =
    {
      Loadgen.now = (fun () -> !clock);
      send = (fun ~conn:_ id -> inflight := (id, !clock +. 0.001) :: !inflight);
      wait =
        (fun timeout ->
          if (not !stalled) && !clock >= 0.1 then begin
            stalled := true;
            clock := !clock +. 0.05
          end
          else begin
            let next =
              List.fold_left (fun a (_, t) -> Float.min a t) infinity !inflight
            in
            clock := Float.max !clock (Float.min (!clock +. timeout) next)
          end;
          let ready, rest = List.partition (fun (_, t) -> t <= !clock) !inflight in
          inflight := rest;
          List.map fst ready);
    }
  in
  io

let test_open_loop_stall () =
  let r = Loadgen.open_loop (fake_io ()) ~first_id:0 ~conns:2 ~rate:1000. ~duration:0.3 ~grace:1. in
  Alcotest.(check bool) "all answered" true
    (Array.for_all (fun f -> not (Float.is_nan f)) r.Loadgen.finished);
  let lat = Loadgen.latencies r and late = Loadgen.lateness r in
  Array.iteri
    (fun k due ->
      if due >= 0.1 && due < 0.15 then begin
        if lat.(k) < 0.15 -. due then
          Alcotest.failf "request due at %.3f s: latency %.4f s hides the stall" due lat.(k);
        if due > 0.1 +. 1e-6 && late.(k) < 0.15 -. due -. 1e-9 then
          Alcotest.failf "request due at %.3f s: lateness %.4f s not reported" due late.(k)
      end
      else if due >= 0.2 then
        Alcotest.(check (float 1e-6)) "after the stall, latency is the service time" 0.001 lat.(k))
    r.Loadgen.due;
  Alcotest.(check bool) "stall shows in the lateness tail" true
    (Array.fold_left Float.max 0. late >= 0.049)

let test_closed_loop () =
  let r =
    Loadgen.closed_loop (fake_io ()) ~first_id:0 ~conns:2 ~window:4 ~duration:0.05 ~grace:1.
  in
  Alcotest.(check int) "drained" 0 r.Loadgen.unanswered;
  Alcotest.(check bool) "every answer inside the window" true
    (Array.for_all (fun t -> t <= r.Loadgen.start +. 0.05) r.Loadgen.answers);
  (* 8 outstanding, 1 ms each: 8 answers per ms, give or take the
     last millisecond's rounding. *)
  let n = Array.length r.Loadgen.answers in
  Alcotest.(check bool) "throughput" true (n >= 392 && n <= 400);
  Array.iter
    (Alcotest.(check (float 1e-6)) "round trip is the service time" 0.001)
    r.Loadgen.round_trips

(* ---- response checking ------------------------------------------------- *)

let test_checker () =
  let frame ok body = Netsim_serve.Protocol.frame ~ok body in
  let c = Check.create () in
  let answer e f =
    Check.sent c;
    let ok = String.starts_with ~prefix:"OK" f in
    Check.answered c e ~ok ~raw:f
  in
  Alcotest.(check bool) "exact match" true (answer (Check.Exact (frame true "a")) (frame true "a"));
  Alcotest.(check bool) "any OK" true (answer Check.Any_ok (frame true "b"));
  Alcotest.(check int) "no failures yet" 0 (Check.failed c);
  ignore (answer Check.Any_ok (frame false "boom"));
  Alcotest.(check int) "ERR" 1 (Check.failed c);
  ignore (answer (Check.Exact (frame true "a")) (frame true "x"));
  Alcotest.(check int) "mismatched body" 2 (Check.failed c);
  Check.sent c;
  Check.unanswered c 1;
  Alcotest.(check int) "unanswered" 3 (Check.failed c);
  Check.dropped c;
  Alcotest.(check int) "dropped connection" 4 (Check.failed c);
  Alcotest.(check int) "attempted" 5 c.Check.attempted

let test_frames () =
  let frame ok body = Netsim_serve.Protocol.frame ~ok body in
  let stream = frame true "one\ntwo" ^ frame false "bad" ^ frame true "" in
  let r = Frames.create () in
  let got = ref [] in
  String.iter
    (fun ch ->
      Frames.feed r (String.make 1 ch);
      let rec drain () =
        match Frames.next r with
        | Frames.Frame { ok; raw } ->
            got := (ok, raw) :: !got;
            drain ()
        | Frames.Need_more -> ()
        | Frames.Malformed -> Alcotest.fail "valid stream reported malformed"
      in
      drain ())
    stream;
  Alcotest.(check (list (pair bool string)))
    "frames come back whole, in order, byte for byte"
    [ (true, frame true "one\ntwo"); (false, frame false "bad"); (true, frame true "") ]
    (List.rev !got);
  Alcotest.(check string) "body" "one\ntwo" (Frames.body (frame true "one\ntwo"));
  let bad = Frames.create () in
  Frames.feed bad "HELLO 3\nabc\n";
  Alcotest.(check bool) "junk header" true (Frames.next bad = Frames.Malformed)

(* ---- BENCHMARK.json ---------------------------------------------------- *)

let benchmark () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Bench_support.Trend.parse s

let str = function Some (Jsonx.String s) -> s | _ -> Alcotest.fail "expected a string"
let arr = function Some (Jsonx.Arr l) -> l | _ -> Alcotest.fail "expected an array"

let num = function
  | Some (Jsonx.Float f) -> f
  | Some (Jsonx.Int i) -> float_of_int i
  | _ -> Alcotest.fail "expected a number"

let test_benchmark_json () =
  let b = benchmark () in
  let names key = List.map (fun w -> str (Jsonx.member "name" w)) (arr (Jsonx.member key b)) in
  List.iter
    (fun n -> if not (Spec.valid_name n) then Alcotest.failf "bad name %S" n)
    (names "workloads" @ names "end_to_end" @ names "per_layer");
  Alcotest.(check (list string)) "workloads" Spec.workloads (names "workloads");
  let metrics key specs =
    let listed =
      List.map
        (fun m ->
          ( str (Jsonx.member "name" m),
            str (Jsonx.member "unit" m),
            str (Jsonx.member "better" m) ))
        (arr (Jsonx.member key b))
    in
    Alcotest.(check (list (triple string string string)))
      (key ^ " match the harness")
      (List.map
         (fun (s : Spec.metric) ->
           (s.Spec.name, s.Spec.unit_, Spec.better_to_string s.Spec.better))
         specs)
      listed
  in
  metrics "end_to_end" Spec.end_to_end;
  metrics "per_layer" Spec.per_layer;
  List.iter
    (fun m ->
      let bound = num (Jsonx.member "bound" m) in
      if bound <= 0. || bound > 0.25 then Alcotest.failf "bound %g out of (0, 0.25]" bound)
    (arr (Jsonx.member "end_to_end" b));
  Alcotest.(check (list string)) "paths" [ "bench/e2e" ]
    (List.map (fun p -> str (Some p)) (arr (Jsonx.member "paths" b)))

let () =
  Alcotest.run "bench-e2e"
    [
      ("tail", [ Alcotest.test_case "tail quantile rule" `Quick test_tail_rule ]);
      ( "layers",
        [
          Alcotest.test_case "flattening adds up" `Quick test_flatten;
          Alcotest.test_case "every lib span has one layer" `Quick
            test_every_lib_span_has_a_layer;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "open loop charges a stall from due time" `Quick
            test_open_loop_stall;
          Alcotest.test_case "closed loop window" `Quick test_closed_loop;
        ] );
      ( "check",
        [
          Alcotest.test_case "each failure kind counts once" `Quick test_checker;
          Alcotest.test_case "frame reader" `Quick test_frames;
        ] );
      ("benchmark", [ Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json ]);
    ]
