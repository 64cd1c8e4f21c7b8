(* Microbenchmark of internet-scale multi-origin propagation:

     dune exec bench/micro_scale.exe -- [--out FILE] [--history FILE]
       [--gate] [--gate-trend] [--origins N] [sweeps]

   Generates the ~75k-AS scale topology, propagates a spread of stub
   origins once through [Propagate.run_batch] and once as independent
   [Propagate.run] calls — verifying entry-for-entry equality before
   any timing — and reports the median wall time of [sweeps] timed
   sweeps each (at least 3, default 3, after one warm-up; a single
   reading follows GC heap growth), throughput in AS-states computed
   per second, the batched-over-sequential ratio and the process's
   peak RSS.  [run_batch] is one single-origin kernel call per config
   inside one span, so both sweeps do the same work and the ratio
   reads ~1.0: it shows that the batch wrapper costs nothing, not a
   speedup.  Writes the
   numbers as JSON (default BENCH_scale.json) and appends a history
   record to BENCH_history.jsonl under bench "scale" with a
   per-workload variant tag, so differently-sized runs never gate
   against each other.

   --gate enforces the scale bounds: >= 50k ASes and >= 64 origins,
   on top of the batched-vs-sequential differential every run does;
   exits non-zero otherwise (used by the CI bench smoke).
   --gate-trend fails when a tracked metric (batch and sequential
   sweep time, throughput, peak RSS) regresses > 15% against the
   median of the last 5 history records of the same variant. *)

module Topology = Netsim_topo.Topology
module Generator = Netsim_topo.Generator
module Announce = Netsim_bgp.Announce
module Propagate = Netsim_bgp.Propagate
module Jsonx = Netsim_obs.Jsonx

let median_s f sweeps =
  f () (* warm-up *);
  let times =
    Array.init sweeps (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        Unix.gettimeofday () -. t0)
  in
  Array.sort compare times;
  times.(sweeps / 2)

(* Peak resident set size in kB, from the kernel's high-water mark. *)
let peak_rss_kb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          let line = input_line ic in
          match String.index_opt line ':' with
          | Some i when String.sub line 0 i = "VmHWM" ->
              String.sub line (i + 1) (String.length line - i - 1)
              |> String.trim
              |> (fun s ->
                   match String.index_opt s ' ' with
                   | Some j -> String.sub s 0 j
                   | None -> s)
              |> int_of_string
          | _ -> scan ()
        in
        scan ())
  with _ -> 0

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let history = ref Bench_support.Trend.default_history in
  let gate_trend = ref false in
  let origins_n = ref 64 in
  let rec parse ~out ~gate ~sweeps = function
    | [] -> (out, gate, sweeps)
    | "--out" :: file :: rest -> parse ~out:file ~gate ~sweeps rest
    | "--history" :: file :: rest ->
        history := file;
        parse ~out ~gate ~sweeps rest
    | "--gate" :: rest -> parse ~out ~gate:true ~sweeps rest
    | "--gate-trend" :: rest ->
        gate_trend := true;
        parse ~out ~gate ~sweeps rest
    | "--origins" :: n :: rest ->
        origins_n := int_of_string n;
        parse ~out ~gate ~sweeps rest
    | n :: rest -> parse ~out ~gate ~sweeps:(int_of_string n) rest
  in
  let out, gate, sweeps =
    parse ~out:"BENCH_scale.json" ~gate:false ~sweeps:3 args
  in
  let sweeps = Stdlib.max 3 sweeps in
  let topo =
    match Generator.generate_scale Generator.scale_params with
    | Ok t -> t
    | Error e ->
        Printf.printf "FAIL: generate_scale: %s\n" e;
        exit 1
  in
  let n = Topology.as_count topo in
  let stubs = Array.of_list (Topology.by_klass topo Netsim_topo.Asn.Stub) in
  let k = Stdlib.min !origins_n (Array.length stubs) in
  let configs =
    Array.init k (fun i ->
        Announce.default ~origin:stubs.(i * Array.length stubs / k))
  in
  (* Correctness before speed: every batched state must be
     entry-for-entry equal to an independent run of its config. *)
  let batched = Propagate.run_batch topo configs in
  Array.iteri
    (fun i st ->
      if not (Propagate.equal st (Propagate.run topo configs.(i))) then begin
        Printf.printf "FAIL: batched state %d differs from sequential run\n" i;
        exit 1
      end)
    batched;
  let batch_s =
    median_s (fun () -> ignore (Propagate.run_batch topo configs)) sweeps
  in
  let seq_s =
    median_s
      (fun () ->
        Array.iter (fun c -> ignore (Propagate.run topo c)) configs)
      sweeps
  in
  let speedup = seq_s /. batch_s in
  let ases_per_sec = float_of_int (n * k) /. batch_s in
  let rss_kb = peak_rss_kb () in
  Printf.printf
    "scale: %d ASes  %d links  %d origins  median of %d sweeps\n\
     batched %.3f s/sweep  sequential %.3f s/sweep  speedup %.2fx\n\
     throughput %.0f AS-states/s  peak RSS %d kB\n"
    n (Topology.link_count topo) k sweeps batch_s seq_s speedup ases_per_sec
    rss_kb;
  Bench_support.Bench_out.write ~out ~bench:"scale"
    [
      ("sweeps", Jsonx.Int sweeps);
      ("as_count", Jsonx.Int n);
      ("link_count", Jsonx.Int (Topology.link_count topo));
      ("origins", Jsonx.Int k);
      ("batch_s", Jsonx.Float batch_s);
      ("sequential_s", Jsonx.Float seq_s);
      ("speedup", Jsonx.Float speedup);
      ("ases_per_sec", Jsonx.Float ases_per_sec);
      ("peak_rss_kb", Jsonx.Int rss_kb);
    ];
  let variant = Printf.sprintf "n%d_o%d" n k in
  let metrics =
    Bench_support.Trend.
      [
        metric "batch_s" batch_s;
        metric "sequential_s" seq_s;
        metric ~lower_better:false "ases_per_sec" ases_per_sec;
        metric "peak_rss_kb" (float_of_int rss_kb);
      ]
  in
  (* Gate against the records that existed before this run, then
     append — a regression can't dilute its own baseline. *)
  let trend_ok =
    (not !gate_trend)
    || Bench_support.Trend.gate ~history:!history ~bench:"scale" ~variant
         ~label:"gate-trend" metrics
  in
  Bench_support.Trend.append ~history:!history ~bench:"scale" ~variant metrics;
  if gate then begin
    if n < 50_000 then begin
      Printf.printf "FAIL: topology under 50k ASes (%d)\n" n;
      exit 1
    end;
    if k < 64 then begin
      Printf.printf "FAIL: fewer than 64 origins (%d)\n" k;
      exit 1
    end
  end;
  if not trend_ok then exit 1
