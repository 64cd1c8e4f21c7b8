(* Microbenchmark of the warm-RIB query daemon:

     dune exec bench/micro_serve.exe -- [--out FILE] [--history FILE]
       [--gate-trend] [--clients N] [--gate-parallel]
       [--load] [queries]

   Sequential mode drives a seed-built server through a round-robin
   CATCHMENT / RTT / EGRESS / STATS request mix via the real request
   loop (parsing, framing, counters, batch advances) and reports
   throughput and tail latency, once on a quiet timeline and once with
   the churn timeline applying link flaps and congestion bursts
   between request batches.  Parallel mode interleaves the same mix
   across [--clients] concurrent sessions through the round executor
   (read-only verbs fanned over the domain pool) and reports aggregate
   throughput, the worst per-client p99 and peak RSS.  Results go to
   BENCH_serve.json and the bench history: the sequential numbers
   under bench "serve" (no variant), the parallel numbers under
   variant "parallel_c<clients>_d<domains>", so differently-shaped
   runs never gate against each other.

   --gate-parallel enforces the concurrency acceptance bound: quiet
   parallel throughput >= 2x quiet sequential throughput (CI runs it
   at NETSIM_DOMAINS=4).  --load benchmarks snapshot loading (the
   mmap arena path, identity-checked first) at the internet scale of
   bench/micro_scale and records load time, file size and peak RSS
   under variant "load_n<ases>", which --gate-trend gates. *)

module Server = Netsim_serve.Server
module Snapshot = Netsim_serve.Snapshot
module Pool = Netsim_par.Pool
module Topology = Netsim_topo.Topology
module Generator = Netsim_topo.Generator
module Announce = Netsim_bgp.Announce
module Propagate = Netsim_bgp.Propagate
module Jsonx = Netsim_obs.Jsonx

let mix server =
  let prefixes = Array.length (Server.prefixes server) in
  let pop = List.hd (Server.pops server) in
  fun i ->
    match i mod 4 with
    | 0 -> Printf.sprintf "CATCHMENT %d" (i mod prefixes)
    | 1 -> Printf.sprintf "RTT %d anycast" (i mod prefixes)
    | 2 -> Printf.sprintf "EGRESS %d" pop
    | _ -> "STATS"

let percentile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

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

(* Throughput and p99 over [queries] requests against a fresh server.
   The first round of the mix is warm-up (it faults states into the
   RIB cache), then every request is timed individually. *)
let drive ~churn ~queries =
  let cfg = { Server.default_config with Server.churn } in
  let server = Server.build cfg in
  let query = mix server in
  for i = 0 to 3 do
    ignore (Server.handle_line server (query i))
  done;
  let lat_us = Array.make queries 0. in
  let t0 = Unix.gettimeofday () in
  for i = 0 to queries - 1 do
    let q0 = Unix.gettimeofday () in
    ignore (Server.handle_line server (query i));
    lat_us.(i) <- (Unix.gettimeofday () -. q0) *. 1e6
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Array.sort compare lat_us;
  (float_of_int queries /. elapsed, percentile lat_us 0.99)

(* The same total workload split round-robin across [clients]
   concurrent sessions: client c receives queries c, c+clients,
   c+2*clients, ... so every client runs the full verb mix.  Reports
   aggregate throughput and the worst per-client p99 (from the
   executor's per-request wall clock). *)
let drive_parallel ~churn ~clients ~queries =
  let cfg = { Server.default_config with Server.churn } in
  let server = Server.build cfg in
  let query = mix server in
  for i = 0 to 3 do
    ignore (Server.handle_line server (query i))
  done;
  let per_client = queries / clients in
  let streams =
    Array.init clients (fun c ->
        List.init per_client (fun i -> query ((i * clients) + c)))
  in
  let lats = Array.init clients (fun _ -> ref []) in
  let on_latency c us = lats.(c) := us :: !(lats.(c)) in
  let t0 = Unix.gettimeofday () in
  let responses = Server.serve_streams ~on_latency server streams in
  let elapsed = Unix.gettimeofday () -. t0 in
  Array.iteri
    (fun c resp ->
      if List.length resp <> per_client then begin
        Printf.printf "FAIL: client %d got %d responses, expected %d\n" c
          (List.length resp) per_client;
        exit 1
      end)
    responses;
  let worst_p99 =
    Array.fold_left
      (fun acc l ->
        let a = Array.of_list !l in
        Array.sort compare a;
        Float.max acc (percentile a 0.99))
      0. lats
  in
  (float_of_int (clients * per_client) /. elapsed, worst_p99)

(* ---- snapshot load at internet scale ---------------------------------- *)

let time_best_of_3 f =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    f ();
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

(* A warm snapshot at the micro_scale topology size: the full ~75k-AS
   graph with [origins] converged tracked RIBs — the state a
   production-shaped daemon would checkpoint. *)
let scale_snapshot ~origins =
  let topo =
    match Generator.generate_scale Generator.scale_params with
    | Ok t -> t
    | Error e ->
        Printf.printf "FAIL: generate_scale: %s\n" e;
        exit 1
  in
  let stubs = Array.of_list (Topology.by_klass topo Netsim_topo.Asn.Stub) in
  let k = Stdlib.min origins (Array.length stubs) in
  let configs =
    Array.init k (fun i ->
        Announce.default ~origin:stubs.(i * Array.length stubs / k))
  in
  let states = Array.map (Propagate.run topo) configs in
  {
    Snapshot.git_sha = Netsim_serve.Version.git_sha ();
    created_gen = Topology.generation topo;
    seed = 42;
    now_min = 0.;
    base = topo;
    down_links = [];
    asid = stubs.(0);
    pops = [];
    prefixes = [||];
    ribs =
      Array.to_list
        (Array.mapi
           (fun i st ->
             let cust, peer, prov = Propagate.rib_arrays st in
             {
               Snapshot.rib_origin = configs.(i).Announce.origin;
               rib_active = true;
               rib_cust = cust;
               rib_peer = peer;
               rib_prov = prov;
             })
           states);
    pending = [];
    overlays = [];
  }

let bench_load ~out ~history ~gate_trend ~origins =
  let snap = scale_snapshot ~origins in
  let n = Topology.as_count snap.Snapshot.base in
  let path = Filename.temp_file "beatbgp_snap" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Snapshot.save snap ~path;
      let load () =
        match Snapshot.load ~path with
        | Ok s -> s
        | Error e ->
            Printf.printf "FAIL: load %s: %s\n" path e;
            exit 1
      in
      (* Correctness before speed: the loaded state must re-encode to
         the bytes it was saved from. *)
      if Snapshot.to_bytes (load ()) <> Snapshot.to_bytes snap then begin
        Printf.printf "FAIL: loaded snapshot differs from the saved state\n";
        exit 1
      end;
      let load_s = time_best_of_3 (fun () -> ignore (load ())) in
      let size = (Unix.stat path).Unix.st_size in
      let rss_kb = peak_rss_kb () in
      Printf.printf
        "serve-load: %d ASes  %d ribs  load %.3f s (%d bytes)  peak RSS %d kB\n"
        n
        (List.length snap.Snapshot.ribs)
        load_s size rss_kb;
      Bench_support.Bench_out.write ~out ~bench:"serve_load"
        [
          ("as_count", Jsonx.Int n);
          ("ribs", Jsonx.Int (List.length snap.Snapshot.ribs));
          ("load_s", Jsonx.Float load_s);
          ("size_bytes", Jsonx.Int size);
          ("peak_rss_kb", Jsonx.Int rss_kb);
        ];
      let variant = Printf.sprintf "load_n%d" n in
      let metrics =
        Bench_support.Trend.
          [
            metric "load_s" load_s;
            metric "size_bytes" (float_of_int size);
            metric "peak_rss_kb" (float_of_int rss_kb);
          ]
      in
      let trend_ok =
        (not gate_trend)
        || Bench_support.Trend.gate ~history ~bench:"serve" ~variant
             ~label:"gate-trend" metrics
      in
      Bench_support.Trend.append ~history ~bench:"serve" ~variant metrics;
      if not trend_ok then exit 1)

let bench ~out ~history ~gate_trend ~gate_parallel ~clients ~queries =
  let qps, p99_us = drive ~churn:false ~queries in
  let churn_qps, churn_p99_us = drive ~churn:true ~queries in
  Printf.printf
    "serve: quiet %.0f q/s (p99 %.0f us)  churn %.0f q/s (p99 %.0f us)\n" qps
    p99_us churn_qps churn_p99_us;
  let par_qps, par_p99_us = drive_parallel ~churn:false ~clients ~queries in
  let par_churn_qps, par_churn_p99_us =
    drive_parallel ~churn:true ~clients ~queries
  in
  let domains = Pool.domain_count () in
  let rss_kb = peak_rss_kb () in
  Printf.printf
    "serve-parallel: %d clients x %d domains  quiet %.0f q/s (worst p99 %.0f \
     us)  churn %.0f q/s (worst p99 %.0f us)  peak RSS %d kB\n"
    clients domains par_qps par_p99_us par_churn_qps par_churn_p99_us rss_kb;
  Bench_support.Bench_out.write ~out ~bench:"serve"
    [
      ("queries", Jsonx.Int queries);
      ("qps", Jsonx.Float qps);
      ("p99_us", Jsonx.Float p99_us);
      ("churn_qps", Jsonx.Float churn_qps);
      ("churn_p99_us", Jsonx.Float churn_p99_us);
      ("clients", Jsonx.Int clients);
      ("domains", Jsonx.Int domains);
      ("parallel_qps", Jsonx.Float par_qps);
      ("parallel_p99_us", Jsonx.Float par_p99_us);
      ("parallel_churn_qps", Jsonx.Float par_churn_qps);
      ("parallel_churn_p99_us", Jsonx.Float par_churn_p99_us);
      ("peak_rss_kb", Jsonx.Int rss_kb);
    ];
  let metrics =
    Bench_support.Trend.
      [
        metric ~lower_better:false "qps" qps;
        metric "p99_us" p99_us;
        metric ~lower_better:false "churn_qps" churn_qps;
      ]
  in
  let trend_ok =
    (not gate_trend)
    || Bench_support.Trend.gate ~history ~bench:"serve" ~label:"gate-trend"
         metrics
  in
  Bench_support.Trend.append ~history ~bench:"serve" metrics;
  (* Parallel numbers live under their own variant: a 8-client 4-domain
     run must never gate against a sequential or 1-domain record. *)
  let variant = Printf.sprintf "parallel_c%d_d%d" clients domains in
  let par_metrics =
    Bench_support.Trend.
      [
        metric ~lower_better:false "parallel_qps" par_qps;
        metric "parallel_p99_us" par_p99_us;
        metric ~lower_better:false "parallel_churn_qps" par_churn_qps;
        metric "peak_rss_kb" (float_of_int rss_kb);
      ]
  in
  let par_trend_ok =
    (not gate_trend)
    || Bench_support.Trend.gate ~history ~bench:"serve" ~variant
         ~label:"gate-trend" par_metrics
  in
  Bench_support.Trend.append ~history ~bench:"serve" ~variant par_metrics;
  if gate_parallel then begin
    if par_qps < 2. *. qps then begin
      Printf.printf
        "FAIL: parallel throughput under 2x sequential (%.0f vs %.0f q/s at \
         %d domains)\n"
        par_qps qps domains;
      exit 1
    end;
    Printf.printf "gate-parallel: OK (%.2fx at %d domains)\n" (par_qps /. qps)
      domains
  end;
  if not (trend_ok && par_trend_ok) then exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let history = ref Bench_support.Trend.default_history in
  let gate_trend = ref false in
  let gate_parallel = ref false in
  let clients = ref 8 in
  let load = ref false in
  let origins = ref 8 in
  let rec parse ~out ~queries = function
    | [] -> (out, queries)
    | "--out" :: file :: rest -> parse ~out:file ~queries rest
    | "--history" :: file :: rest ->
        history := file;
        parse ~out ~queries rest
    | "--gate-trend" :: rest ->
        gate_trend := true;
        parse ~out ~queries rest
    | "--gate-parallel" :: rest ->
        gate_parallel := true;
        parse ~out ~queries rest
    | "--clients" :: n :: rest ->
        clients := int_of_string n;
        parse ~out ~queries rest
    | "--load" :: rest ->
        load := true;
        parse ~out ~queries rest
    | "--origins" :: n :: rest ->
        origins := int_of_string n;
        parse ~out ~queries rest
    | n :: rest -> parse ~out ~queries:(int_of_string n) rest
  in
  let out, queries = parse ~out:"BENCH_serve.json" ~queries:2000 args in
  if !load then
    bench_load ~out:"BENCH_serve_load.json" ~history:!history
      ~gate_trend:!gate_trend ~origins:!origins
  else
    bench ~out ~history:!history ~gate_trend:!gate_trend
      ~gate_parallel:!gate_parallel ~clients:!clients ~queries
