(* Tests for the observability substrate (Netsim_obs): counter /
   gauge / histogram arithmetic, span nesting and exclusive-time
   accounting, JSON emitter validity (round-trip checked with a tiny
   parser below), and a determinism proof that instrumentation does
   not perturb figure output. *)

module Metrics = Netsim_obs.Metrics
module Span = Netsim_obs.Span
module Report = Netsim_obs.Report
module Jsonx = Netsim_obs.Jsonx
module Recorder = Netsim_obs.Recorder
module Export_prom = Netsim_obs.Export_prom
module Export_trace = Netsim_obs.Export_trace

let checkf = Alcotest.(check (float 1e-9))

(* Every test starts from a clean slate and leaves tracing off, so the
   global registry never leaks state into other suites. *)
let with_clean ?(enabled = true) f () =
  Report.reset ();
  Metrics.set_enabled enabled;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Report.reset ())
    f

(* ---- counters / gauges ---- *)

let test_counter_disabled () =
  let c = Metrics.counter "t.disabled" in
  Metrics.incr c;
  Metrics.add c 10;
  Alcotest.(check int) "no-op when disabled" 0 (Metrics.counter_value c)

let test_counter_enabled () =
  let c = Metrics.counter "t.enabled" in
  Metrics.incr c;
  Metrics.add c 4;
  Metrics.add c 5;
  Alcotest.(check int) "10 after incr and two adds" 10 (Metrics.counter_value c);
  Alcotest.(check bool) "interned by name" true
    (Metrics.counter_value (Metrics.counter "t.enabled") = 10);
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.counter_value c)

let test_gauge () =
  let g = Metrics.gauge "t.gauge" in
  Metrics.set g 3.5;
  checkf "set" 3.5 (Metrics.gauge_value g);
  Metrics.set g 1.25;
  checkf "overwrite" 1.25 (Metrics.gauge_value g)

(* ---- histograms ---- *)

let test_histogram_summary_exact () =
  let h = Metrics.histogram "t.hist" in
  List.iter (Metrics.observe h) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check int) "count" 4 (Metrics.histogram_count h);
  let s = Metrics.histogram_summary h in
  checkf "mean exact (summary, not buckets)" 2.5 (Netsim_stats.Summary.mean s);
  checkf "min" 1. (Netsim_stats.Summary.min s);
  checkf "max" 4. (Netsim_stats.Summary.max s);
  checkf "total" 10. (Netsim_stats.Summary.total s)

let test_histogram_quantile_bucketed () =
  let h = Metrics.histogram "t.hist.q" in
  (* Log buckets are ~1.58x wide; quantile estimates must land within
     one bucket of the true value. *)
  for _ = 1 to 100 do
    Metrics.observe h 10.
  done;
  let p50 = Metrics.histogram_quantile h 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 %g within a bucket of 10" p50)
    true
    (p50 > 10. /. 1.6 && p50 < 10. *. 1.6)

let test_histogram_quantiles_monotone () =
  let h = Metrics.histogram "t.hist.m" in
  for i = 1 to 1000 do
    Metrics.observe h (float_of_int i)
  done;
  let p50 = Metrics.histogram_quantile h 0.5 in
  let p90 = Metrics.histogram_quantile h 0.9 in
  let p99 = Metrics.histogram_quantile h 0.99 in
  Alcotest.(check bool) "p50 <= p90 <= p99" true (p50 <= p90 && p90 <= p99);
  Alcotest.(check bool) "p50 near 500" true (p50 > 500. /. 1.6 && p50 < 800.);
  Alcotest.(check bool) "p99 near 990" true (p99 > 990. /. 1.6 && p99 < 1585.)

let test_histogram_extremes () =
  let h = Metrics.histogram "t.hist.e" in
  Metrics.observe h 0.;
  Metrics.observe h (-5.);
  Metrics.observe h 1e12;
  Alcotest.(check int) "under/overflow still counted" 3
    (Metrics.histogram_count h);
  let p = Metrics.histogram_quantile h 0.99 in
  Alcotest.(check bool) "overflow clamps to top bucket" true (p <= 1e7 +. 1.)

let test_histogram_empty () =
  let h = Metrics.histogram "t.hist.empty" in
  Alcotest.(check bool) "quantile of empty is nan" true
    (Float.is_nan (Metrics.histogram_quantile h 0.5))

(* ---- spans ---- *)

let spin ms =
  let t0 = Unix.gettimeofday () in
  while (Unix.gettimeofday () -. t0) *. 1000. < ms do
    ()
  done

let test_span_disabled_transparent () =
  Alcotest.(check int) "returns f's value" 41
    (Span.with_ ~name:"t.off" (fun () -> 41));
  Alcotest.(check (list string)) "no tree recorded" [] (Span.span_names ())

let test_span_nesting () =
  let v =
    Span.with_ ~name:"outer" (fun () ->
        Span.with_ ~name:"inner" (fun () -> spin 2.);
        Span.with_ ~name:"inner" (fun () -> spin 2.);
        17)
  in
  Alcotest.(check int) "value passed through" 17 v;
  match Span.tree () with
  | [ outer ] ->
      Alcotest.(check string) "outer name" "outer" outer.Span.i_name;
      Alcotest.(check int) "outer calls" 1 outer.Span.i_calls;
      (match outer.Span.i_children with
      | [ inner ] ->
          Alcotest.(check string) "inner name" "inner" inner.Span.i_name;
          Alcotest.(check int) "same-name spans merge" 2 inner.Span.i_calls;
          Alcotest.(check bool) "inner total >= 4ms" true
            (inner.Span.i_total_ms >= 4.);
          Alcotest.(check bool) "outer includes inner" true
            (outer.Span.i_total_ms >= inner.Span.i_total_ms);
          (* Exclusive time: outer did almost nothing itself. *)
          Alcotest.(check bool) "outer self = total - child" true
            (Float.abs
               (outer.Span.i_self_ms
               -. (outer.Span.i_total_ms -. inner.Span.i_total_ms))
            < 1e-6)
      | l ->
          Alcotest.failf "expected one merged child, got %d" (List.length l))
  | l -> Alcotest.failf "expected one root, got %d" (List.length l)

let test_span_counter_deltas () =
  let c = Metrics.counter "t.span.work" in
  Span.with_ ~name:"outer" (fun () ->
      Metrics.add c 2;
      Span.with_ ~name:"inner" (fun () -> Metrics.add c 5));
  match Span.tree () with
  | [ outer ] ->
      Alcotest.(check (list (pair string int)))
        "outer sees inclusive delta"
        [ ("t.span.work", 7) ]
        outer.Span.i_counters;
      let inner = List.hd outer.Span.i_children in
      Alcotest.(check (list (pair string int)))
        "inner sees only its own"
        [ ("t.span.work", 5) ]
        inner.Span.i_counters
  | _ -> Alcotest.fail "expected one root"

let test_span_exception_safe () =
  (try Span.with_ ~name:"boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  Span.with_ ~name:"after" (fun () -> ());
  Alcotest.(check (list string))
    "exception closed the span; next span is a sibling root"
    [ "boom"; "after" ] (Span.span_names ())

(* JSON round-tripping uses the tiny parser in Test_util. *)
let parse_json = Test_util.parse_json

let test_json_roundtrip_structural () =
  let doc =
    Jsonx.Obj
      [
        ("plain", Jsonx.Int 42);
        ("neg", Jsonx.Int (-7));
        ("float", Jsonx.Float 3.125);
        ("tricky\"key\n", Jsonx.String "va\\lue\twith \"quotes\"");
        ("control", Jsonx.String "\001\031");
        ("arr", Jsonx.Arr [ Jsonx.Null; Jsonx.Bool true; Jsonx.Bool false ]);
        ("empty_arr", Jsonx.Arr []);
        ("empty_obj", Jsonx.Obj []);
      ]
  in
  let emitted = Jsonx.to_string doc in
  let parsed = parse_json emitted in
  (* Control chars come back as \uXXXX placeholders from the tiny
     parser only if >= 0x80; below 0x80 they round-trip exactly. *)
  Alcotest.(check string) "round-trips structurally" emitted
    (Jsonx.to_string parsed)

let test_json_nan_is_null () =
  Alcotest.(check string) "nan emits null" "null" (Jsonx.to_string (Jsonx.Float nan));
  Alcotest.(check string) "inf emits null" "null"
    (Jsonx.to_string (Jsonx.Float infinity))

let test_report_json_parses () =
  let c = Metrics.counter "t.report.c" in
  let h = Metrics.histogram "t.report.h" in
  Metrics.add c 3;
  Span.with_ ~name:"t.report.span" (fun () -> Metrics.observe h 12.5);
  let doc = Report.to_json () in
  let parsed = parse_json (Jsonx.to_string doc) in
  let metrics =
    match Jsonx.member "metrics" parsed with
    | Some m -> m
    | None -> Alcotest.fail "no metrics key"
  in
  (match Jsonx.member "counters" metrics with
  | Some (Jsonx.Obj fields) ->
      Alcotest.(check bool) "counter present" true
        (List.assoc_opt "t.report.c" fields = Some (Jsonx.Int 3))
  | _ -> Alcotest.fail "no counters object");
  (match Jsonx.member "histograms" metrics with
  | Some (Jsonx.Arr (_ :: _)) -> ()
  | _ -> Alcotest.fail "no histogram entries");
  match Jsonx.member "trace" parsed with
  | Some (Jsonx.Arr (_ :: _)) -> ()
  | _ -> Alcotest.fail "no trace entries"

(* ---- Jsonx string escaping ---- *)

let test_json_escape_control_chars () =
  let s = String.init 32 Char.chr in
  let emitted = Jsonx.to_string (Jsonx.String s) in
  (* Every byte below 0x20 must be escaped — no raw control chars in
     the output. *)
  String.iter
    (fun c ->
      if Char.code c < 0x20 then
        Alcotest.failf "raw control char %d leaked into %S" (Char.code c)
          emitted)
    emitted;
  match parse_json emitted with
  | Jsonx.String s' -> Alcotest.(check string) "round-trips" s s'
  | _ -> Alcotest.fail "expected a string"

let test_json_escape_quotes_backslash () =
  let s = "a\"b\\c/d\ne\tf" in
  match parse_json (Jsonx.to_string (Jsonx.String s)) with
  | Jsonx.String s' -> Alcotest.(check string) "round-trips" s s'
  | _ -> Alcotest.fail "expected a string"

let test_json_escape_non_ascii () =
  (* Bytes >= 0x80 (UTF-8 payload) pass through the emitter raw, per
     RFC 8259 (JSON text is Unicode; only control chars need
     escaping). *)
  let s = "caf\xc3\xa9 \xe2\x82\xac" in
  let emitted = Jsonx.to_string (Jsonx.String s) in
  Alcotest.(check bool) "high bytes not escaped" true
    (Test_util.contains emitted "caf\xc3\xa9");
  match parse_json emitted with
  | Jsonx.String s' -> Alcotest.(check string) "round-trips" s s'
  | _ -> Alcotest.fail "expected a string"

let test_json_unicode_escape_parses () =
  (* The tiny parser maps \uXXXX below 0x80 back to the raw char, so
     emitter escapes of ASCII control chars round-trip exactly. *)
  (match parse_json "\"A\\u000a\"" with
  | Jsonx.String s -> Alcotest.(check string) "A + newline" "A\n" s
  | _ -> Alcotest.fail "expected a string");
  match parse_json "\"\\u20ac\"" with
  | Jsonx.String s ->
      Alcotest.(check string) "non-ASCII escape kept as placeholder"
        "\\u20ac" s
  | _ -> Alcotest.fail "expected a string"

(* ---- Report.write_text error paths ---- *)

let test_write_text_missing_dir () =
  match Report.write_text "/nonexistent-dir-xyz/out.json" "{}" with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message names the directory: %s" msg)
        true
        (Test_util.contains msg "directory"
        && Test_util.contains msg "/nonexistent-dir-xyz")

let test_write_text_roundtrip () =
  let path = Filename.temp_file "netsim_obs" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Report.write_text path "hello";
      let ic = open_in path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "content written" "hello" s)

(* ---- Prometheus exporter ---- *)

(* Structural validation of the text-exposition output: HELP/TYPE
   precede every metric, histogram buckets are cumulative (monotone),
   and the +Inf bucket equals _count. *)
let test_prom_format_valid () =
  Metrics.add (Metrics.counter "t.prom.count") 7;
  Metrics.set (Metrics.gauge "t.prom.gauge") 2.5;
  let h = Metrics.histogram "t.prom.hist" in
  List.iter (Metrics.observe h) [ 0.5; 1.; 10.; 100.; 1e9 ];
  let text = Export_prom.to_string () in
  let lines = String.split_on_char '\n' text in
  (* Every non-comment line's metric family must have been declared by
     a preceding TYPE line. *)
  let declared = Hashtbl.create 16 in
  let strip_family name =
    List.fold_left
      (fun n suffix ->
        if Filename.check_suffix n suffix then Filename.chop_suffix n suffix
        else n)
      name
      [ "_bucket"; "_sum"; "_count" ]
  in
  List.iter
    (fun line ->
      if line <> "" then
        if String.length line > 6 && String.sub line 0 6 = "# TYPE" then begin
          match String.split_on_char ' ' line with
          | _ :: _ :: name :: _ -> Hashtbl.replace declared name ()
          | _ -> Alcotest.failf "malformed TYPE line %S" line
        end
        else if line.[0] <> '#' then begin
          let name =
            match String.index_opt line '{' with
            | Some i -> String.sub line 0 i
            | None -> (
                match String.index_opt line ' ' with
                | Some i -> String.sub line 0 i
                | None -> line)
          in
          if not (Hashtbl.mem declared (strip_family name)) then
            Alcotest.failf "sample %S lacks a TYPE declaration" name
        end)
    lines;
  (* Bucket monotonicity + consistency for t.prom.hist. *)
  let prefix = Export_prom.sanitize "t.prom.hist" in
  let bucket_counts =
    List.filter_map
      (fun line ->
        if
          String.length line > String.length prefix
          && String.sub line 0 (String.length prefix) = prefix
          && Test_util.contains line "_bucket{"
        then
          match String.rindex_opt line ' ' with
          | Some i ->
              int_of_string_opt
                (String.sub line (i + 1) (String.length line - i - 1))
          | None -> None
        else None)
      lines
  in
  Alcotest.(check bool) "has buckets" true (List.length bucket_counts >= 2);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "buckets cumulative (monotone)" true
    (monotone bucket_counts);
  let last_bucket = List.nth bucket_counts (List.length bucket_counts - 1) in
  Alcotest.(check int) "+Inf bucket equals _count" 5 last_bucket;
  Alcotest.(check bool) "_count line present" true
    (Test_util.contains text (prefix ^ "_count 5"));
  Alcotest.(check bool) "+Inf bucket line present" true
    (Test_util.contains text (prefix ^ "_bucket{le=\"+Inf\"} 5"))

let test_prom_empty_histogram () =
  (* A histogram that was registered but never observed must still
     render the full parse-valid triple — the +Inf bucket, _sum and
     _count, all zero.  A scrape that hits the daemon before the first
     observation would otherwise fail exposition parsing. *)
  let _ = Metrics.histogram "t.prom.empty" in
  let text = Export_prom.to_string () in
  let prefix = Export_prom.sanitize "t.prom.empty" in
  Alcotest.(check bool) "+Inf bucket at zero" true
    (Test_util.contains text (prefix ^ "_bucket{le=\"+Inf\"} 0"));
  Alcotest.(check bool) "_sum at zero" true
    (Test_util.contains text (prefix ^ "_sum 0"));
  Alcotest.(check bool) "_count at zero" true
    (Test_util.contains text (prefix ^ "_count 0"));
  (* And the cumulative invariant holds: no bucket line of this family
     reports a non-zero count. *)
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if
           String.length line > String.length prefix
           && String.sub line 0 (String.length prefix) = prefix
           && Test_util.contains line "_bucket{"
         then
           match String.rindex_opt line ' ' with
           | Some i ->
               Alcotest.(check string)
                 ("zero count in " ^ line)
                 "0"
                 (String.sub line (i + 1) (String.length line - i - 1))
           | None -> Alcotest.failf "malformed bucket line %S" line)

let test_prom_sanitize () =
  Alcotest.(check string) "dots to underscores" "netsim_a_b_c"
    (Export_prom.sanitize "a.b-c");
  Alcotest.(check string) "leading digit prefixed" "netsim__9lives"
    (Export_prom.sanitize "9lives")

(* ---- Perfetto exporter ---- *)

let test_perfetto_nesting () =
  Span.with_ ~name:"outer" (fun () ->
      Span.with_ ~name:"inner" (fun () -> spin 2.);
      Span.with_ ~name:"inner2" (fun () -> spin 1.));
  let doc = parse_json (Export_trace.to_string ()) in
  let events =
    match Jsonx.member "traceEvents" doc with
    | Some (Jsonx.Arr l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let span_events =
    List.filter
      (fun e -> Jsonx.member "ph" e = Some (Jsonx.String "X"))
      events
  in
  Alcotest.(check int) "three X events" 3 (List.length span_events);
  let find name =
    match
      List.find_opt
        (fun e -> Jsonx.member "name" e = Some (Jsonx.String name))
        span_events
    with
    | Some e -> e
    | None -> Alcotest.failf "no event %s" name
  in
  let ts e =
    match Jsonx.member "ts" e with
    | Some (Jsonx.Float f) -> f
    | Some (Jsonx.Int i) -> float_of_int i
    | _ -> Alcotest.fail "no ts"
  in
  let dur e =
    match Jsonx.member "dur" e with
    | Some (Jsonx.Float f) -> f
    | Some (Jsonx.Int i) -> float_of_int i
    | _ -> Alcotest.fail "no dur"
  in
  let outer = find "outer" and inner = find "inner" and inner2 = find "inner2" in
  Alcotest.(check bool) "inner starts at/after outer" true
    (ts inner >= ts outer);
  Alcotest.(check bool) "inner ends within outer" true
    (ts inner +. dur inner <= ts outer +. dur outer +. 1e-6);
  Alcotest.(check bool) "inner2 starts after inner ends" true
    (ts inner2 >= ts inner +. dur inner -. 1e-6);
  Alcotest.(check bool) "inner2 ends within outer" true
    (ts inner2 +. dur inner2 <= ts outer +. dur outer +. 1e-6)

(* ---- flight recorder ---- *)

let with_recorder f () =
  Report.reset ();
  Recorder.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Recorder.set_enabled false;
      Report.reset ())
    f

let test_recorder_disabled_zero_cost () =
  Recorder.set_enabled false;
  Recorder.record ~kind:"t.ev" [ Recorder.I ("x", 1) ];
  Alcotest.(check int) "nothing recorded when disabled" 0 (Recorder.size ())

let test_recorder_seq_and_jsonl () =
  Recorder.record ~kind:"t.a" [ Recorder.I ("x", 1) ];
  Recorder.record ~kind:"t.b"
    [ Recorder.F ("y", 2.5); Recorder.S ("s", "hi") ];
  Alcotest.(check int) "two events" 2 (Recorder.size ());
  Alcotest.(check int) "no drops" 0 (Recorder.dropped ());
  let lines =
    String.split_on_char '\n' (String.trim (Recorder.to_jsonl ()))
  in
  Alcotest.(check int) "header + 2 events" 3 (List.length lines);
  (match parse_json (List.nth lines 0) with
  | Jsonx.Obj fields ->
      Alcotest.(check bool) "schema header" true
        (List.assoc_opt "schema" fields
        = Some (Jsonx.String "beatbgp.events/1"))
  | _ -> Alcotest.fail "bad header");
  match (parse_json (List.nth lines 1), parse_json (List.nth lines 2)) with
  | Jsonx.Obj a, Jsonx.Obj b ->
      Alcotest.(check bool) "seq 0 then 1" true
        (List.assoc_opt "seq" a = Some (Jsonx.Int 0)
        && List.assoc_opt "seq" b = Some (Jsonx.Int 1));
      Alcotest.(check bool) "fields survive" true
        (List.assoc_opt "s" b = Some (Jsonx.String "hi"))
  | _ -> Alcotest.fail "bad event lines"

let test_recorder_ring_drops () =
  let saved = Recorder.capacity () in
  Fun.protect
    ~finally:(fun () -> Recorder.set_capacity saved)
    (fun () ->
      Recorder.set_capacity 4;
      for i = 0 to 9 do
        Recorder.record ~kind:"t.ring" [ Recorder.I ("i", i) ]
      done;
      Alcotest.(check int) "ring holds capacity" 4 (Recorder.size ());
      Alcotest.(check int) "dropped the rest" 6 (Recorder.dropped ());
      let jsonl = Recorder.to_jsonl () in
      Alcotest.(check bool) "oldest surviving seq is 6" true
        (Test_util.contains jsonl "{\"seq\":6,");
      Alcotest.(check bool) "newest seq is 9" true
        (Test_util.contains jsonl "{\"seq\":9,");
      Alcotest.(check bool) "seq 5 was dropped" false
        (Test_util.contains jsonl "{\"seq\":5,"))

let test_recorder_capture_absorb () =
  Recorder.record ~kind:"t.before" [];
  let (), cap =
    Netsim_obs.Capture.run (fun () ->
        Recorder.record ~kind:"t.inside" [ Recorder.I ("i", 1) ];
        Recorder.record ~kind:"t.inside" [ Recorder.I ("i", 2) ])
  in
  Alcotest.(check int) "captured events not yet in ring" 1 (Recorder.size ());
  Netsim_obs.Capture.absorb cap;
  Recorder.record ~kind:"t.after" [];
  let jsonl = Recorder.to_jsonl () in
  Alcotest.(check int) "all four in ring" 4 (Recorder.size ());
  (* Submission-order replay: before, inside(1), inside(2), after. *)
  let idx s =
    let rec go i =
      if i + String.length s > String.length jsonl then -1
      else if String.sub jsonl i (String.length s) = s then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "ordered replay" true
    (idx "t.before" < idx "\"i\":1"
    && idx "\"i\":1" < idx "\"i\":2"
    && idx "\"i\":2" < idx "t.after")

let test_recorder_pool_domain_invariant () =
  let run d =
    let saved = Netsim_par.Pool.domain_count () in
    Netsim_par.Pool.set_domain_count d;
    Fun.protect
      ~finally:(fun () -> Netsim_par.Pool.set_domain_count saved)
      (fun () ->
        Recorder.reset ();
        ignore
          (Netsim_par.Pool.map
             (fun i ->
               Recorder.record ~kind:"t.pool" [ Recorder.I ("task", i) ];
               if i mod 2 = 0 then
                 Recorder.record ~kind:"t.pool.even" [ Recorder.I ("task", i) ];
               i)
             (Array.init 16 Fun.id));
        Recorder.to_jsonl ())
  in
  Alcotest.(check string) "event log byte-identical (1 vs 4 domains)"
    (run 1) (run 4)

(* ---- determinism: tracing must not perturb simulation output ---- *)

let test_tracing_does_not_perturb_fig1 () =
  let sizes = Beatbgp.Scenario.test_sizes in
  let run () =
    let fb = Beatbgp.Scenario.facebook ~sizes () in
    let r = Beatbgp.Fig1_pop_egress.run fb in
    Beatbgp.Figure.to_csv r.Beatbgp.Fig1_pop_egress.figure
  in
  Metrics.set_enabled false;
  let untraced = run () in
  Report.reset ();
  Metrics.set_enabled true;
  let traced = run () in
  Metrics.set_enabled false;
  Alcotest.(check bool) "tracing recorded spans" true (Span.span_names () <> []);
  Alcotest.(check string) "identical figure data with tracing on" untraced
    traced

let suite =
  [
    Alcotest.test_case "counter disabled"
      `Quick (with_clean ~enabled:false test_counter_disabled);
    Alcotest.test_case "counter enabled" `Quick (with_clean test_counter_enabled);
    Alcotest.test_case "gauge" `Quick (with_clean test_gauge);
    Alcotest.test_case "histogram summary exact" `Quick
      (with_clean test_histogram_summary_exact);
    Alcotest.test_case "histogram quantile bucketed" `Quick
      (with_clean test_histogram_quantile_bucketed);
    Alcotest.test_case "histogram quantiles monotone" `Quick
      (with_clean test_histogram_quantiles_monotone);
    Alcotest.test_case "histogram extremes" `Quick
      (with_clean test_histogram_extremes);
    Alcotest.test_case "histogram empty" `Quick
      (with_clean test_histogram_empty);
    Alcotest.test_case "span disabled transparent" `Quick
      (with_clean ~enabled:false test_span_disabled_transparent);
    Alcotest.test_case "span nesting + exclusive time" `Quick
      (with_clean test_span_nesting);
    Alcotest.test_case "span counter deltas" `Quick
      (with_clean test_span_counter_deltas);
    Alcotest.test_case "span exception safety" `Quick
      (with_clean test_span_exception_safe);
    Alcotest.test_case "json round-trip" `Quick
      (with_clean test_json_roundtrip_structural);
    Alcotest.test_case "json nan -> null" `Quick
      (with_clean test_json_nan_is_null);
    Alcotest.test_case "report json parses" `Quick
      (with_clean test_report_json_parses);
    Alcotest.test_case "json escape: control chars" `Quick
      (with_clean test_json_escape_control_chars);
    Alcotest.test_case "json escape: quotes and backslash" `Quick
      (with_clean test_json_escape_quotes_backslash);
    Alcotest.test_case "json escape: non-ascii bytes" `Quick
      (with_clean test_json_escape_non_ascii);
    Alcotest.test_case "json \\u escapes parse" `Quick
      (with_clean test_json_unicode_escape_parses);
    Alcotest.test_case "write_text: missing directory fails clearly" `Quick
      (with_clean test_write_text_missing_dir);
    Alcotest.test_case "write_text: roundtrip" `Quick
      (with_clean test_write_text_roundtrip);
    Alcotest.test_case "prometheus format valid" `Quick
      (with_clean test_prom_format_valid);
    Alcotest.test_case "prometheus empty histogram stays parse-valid" `Quick
      (with_clean test_prom_empty_histogram);
    Alcotest.test_case "prometheus name sanitization" `Quick
      (with_clean test_prom_sanitize);
    Alcotest.test_case "perfetto spans nest" `Quick
      (with_clean test_perfetto_nesting);
    Alcotest.test_case "recorder disabled is a no-op" `Quick
      (with_recorder test_recorder_disabled_zero_cost);
    Alcotest.test_case "recorder seq numbers + jsonl" `Quick
      (with_recorder test_recorder_seq_and_jsonl);
    Alcotest.test_case "recorder ring drops oldest" `Quick
      (with_recorder test_recorder_ring_drops);
    Alcotest.test_case "recorder capture/absorb ordering" `Quick
      (with_recorder test_recorder_capture_absorb);
    Alcotest.test_case "recorder pool domain-invariant" `Quick
      (with_recorder test_recorder_pool_domain_invariant);
    Alcotest.test_case "tracing does not perturb fig1" `Slow
      (with_clean test_tracing_does_not_perturb_fig1);
  ]
