(* The three serve workloads.

   The daemon is this binary re-executed with `--daemon <workload>`:
   it calls Server.build on the workload's config and Server.listen on
   an ephemeral port, exactly what `beatbgp serve --listen` does, in a
   process of its own so its peak RSS is its own.  The parent is the
   load generator: one thread and [conns] TCP connections.  It runs
   three measured phases, each against a fresh daemon after a
   closed-loop warm-up: round trips with one request outstanding per
   connection (latency), an open loop at the workload's fixed rate
   (latency from each request's due time) and a closed loop with
   [window] requests outstanding per connection (throughput).  After
   each it reads STATS and the daemon's VmHWM and sends QUIT.

   serve_hot:   CATCHMENT / RTT anycast / RTT <tracked origin>, and
                EXPLAIN anycast <client AS> one request in eight; every
                answer comes from warm engine state or one cached
                provenance state, so no propagation after warm-up.
   serve_cold:  EGRESS cycling over all 40 PoPs; the client-origin
                working set overflows the 64-entry RIB cache shard, so
                time goes to Propagate.run.
   serve_churn: the serve_hot mix plus EGRESS over 4 fixed PoPs, with
                the churn timeline on; every 16 requests of a session
                the daemon advances 15 simulated minutes.

   Every hot and cold response must equal, byte for byte, the framed
   Server.handle answer of a reference server built from the same
   config in this process before the daemon starts.  Churn answers
   depend on how the sessions interleave on the shared engine clock, so
   they must only be well-formed OK frames. *)

module Server = Netsim_serve.Server
module Protocol = Netsim_serve.Protocol
module Engine = Netsim_dynamics.Engine
module Prefix = Netsim_traffic.Prefix
module Sm = Netsim_prng.Splitmix
module Metrics = Netsim_obs.Metrics
module Span = Netsim_obs.Span
module Pool = Netsim_par.Pool
module Rib_cache = Netsim_bgp.Rib_cache

type kind = Hot | Cold | Churn

let of_name = function
  | "serve_hot" -> Some Hot
  | "serve_cold" -> Some Cold
  | "serve_churn" -> Some Churn
  | _ -> None

let name = function Hot -> "serve_hot" | Cold -> "serve_cold" | Churn -> "serve_churn"

(* Two sessions advance the shared clock 15 minutes per 8 requests, so
   a 365-day horizon keeps flaps and bursts pending through ~280k
   requests: several times what a run sends today. *)
let config = function
  | Hot | Cold -> Server.default_config
  | Churn -> { Server.default_config with Server.churn = true; churn_days = 365 }

(* Open-loop rates in requests per second: about half the closed-loop
   throughput measured on a shared 2-core VM when the benchmark was
   introduced, and frozen since, so a faster daemon shows as lower
   latency at the same offered load.  (The churn rate is lower: at
   half its closed-loop rate the reconvergence barriers kept the
   daemon so close to saturation that latency flipped between
   sub-millisecond and queue-bound from run to run.) *)
let rate = function Hot -> 20000. | Cold -> 300. | Churn -> 1000.

(* serve_cold uses one connection: with two, the order in which the
   daemon interleaves the sessions' EGRESS requests moves with timing,
   and it changes the LRU hit ratio, and so the work, by up to a fifth
   from run to run.  One session's order is fixed. *)
let conns = function Hot | Churn -> 2 | Cold -> 1
let window = 8
let warmup_s = 1.
let setup_reps = 9

(* Seconds to wait for stragglers after a phase ends. *)
let grace = 5.

(* ---- request streams -------------------------------------------------- *)

type pools = {
  catchment : string array;
  rtt_anycast : string array;
  rtt_origin : string array;
  explain : string array;
  egress_all : string array;  (** one line per PoP, PoP list order *)
}

let pools server =
  let provider = Server.provider server in
  let clients =
    Array.to_list (Server.prefixes server)
    |> List.filter (fun (p : Prefix.t) -> p.Prefix.asid <> provider)
  in
  let origins =
    Engine.tracked_prefixes (Server.engine server)
    |> List.filter_map (fun (o, _, _) -> if o = provider then None else Some o)
  in
  let lines f = Array.of_list (List.map f clients) in
  {
    catchment = lines (fun p -> Printf.sprintf "CATCHMENT %d" p.Prefix.id);
    rtt_anycast = lines (fun p -> Printf.sprintf "RTT %d anycast" p.Prefix.id);
    rtt_origin =
      Array.of_list
        (List.concat_map
           (fun (p : Prefix.t) ->
             List.filter_map
               (fun o ->
                 if o = p.Prefix.asid then None
                 else Some (Printf.sprintf "RTT %d %d" p.Prefix.id o))
               origins)
           clients);
    explain =
      Array.of_list
        (List.map (Printf.sprintf "EXPLAIN anycast %d")
           (List.sort_uniq compare (List.map (fun (p : Prefix.t) -> p.Prefix.asid) clients)));
    egress_all = Array.of_list (List.map (Printf.sprintf "EGRESS %d") (Server.pops server));
  }

(* Connection [conn]'s request stream: endless, and a pure function of
   (workload, seed, conn). *)
let generator kind p ~seed ~conn =
  let rng = Sm.of_label (Sm.create seed) (Printf.sprintf "e2e.serve.conn%d" conn) in
  let pick a = a.(Sm.next_int rng (Array.length a)) in
  let hot () =
    if Sm.next_int rng 8 = 0 then pick p.explain
    else pick [| p.catchment; p.rtt_anycast; p.rtt_origin |].(Sm.next_int rng 3)
  in
  match kind with
  | Hot -> hot
  | Cold ->
      (* Every seed walks the same cyclic PoP order, from a seed-picked
         start: the order of a cycle decides which origins recur before
         they are evicted, so a shuffle per seed would make the hit
         ratio, and with it the work of a run, depend on the seed. *)
      let n = Array.length p.egress_all in
      let i = ref (Sm.next_int rng n - 1) in
      fun () ->
        incr i;
        p.egress_all.(!i mod n)
  | Churn ->
      let fixed = Array.sub p.egress_all 0 (min 4 (Array.length p.egress_all)) in
      fun () -> if Sm.next_int rng 4 = 0 then pick fixed else hot ()

let verb line =
  match String.index_opt line ' ' with
  | Some i -> String.lowercase_ascii (String.sub line 0 i)
  | None -> String.lowercase_ascii line

(* The framed wire answer to one request line, ERR included. *)
let serve_one server line =
  match Protocol.parse line with
  | Ok req -> (
      match Server.handle server req with
      | Ok body -> Protocol.frame ~ok:true body
      | Error e -> Protocol.frame ~ok:false e)
  | Error e -> Protocol.frame ~ok:false e

(* Every pool line with its framed reference answer; a line the
   reference rejects is dropped from the pools, so no operation of the
   workload is expected to fail. *)
let reference () =
  let server = Server.build Server.default_config in
  let p = pools server in
  let expected = Hashtbl.create 4096 in
  let keep a =
    Array.of_list
      (List.filter
         (fun line ->
           let f = serve_one server line in
           Hashtbl.replace expected line f;
           String.starts_with ~prefix:"OK " f)
         (Array.to_list a))
  in
  let p =
    {
      catchment = keep p.catchment;
      rtt_anycast = keep p.rtt_anycast;
      rtt_origin = keep p.rtt_origin;
      explain = keep p.explain;
      egress_all = keep p.egress_all;
    }
  in
  (p, expected)

(* ---- the daemon -------------------------------------------------------- *)

let daemon kind =
  (* Exit when the parent is gone, whatever killed it. *)
  let parent = Unix.getppid () in
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> if Unix.getppid () <> parent then Unix._exit 3));
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 1.; it_value = 1. });
  (* The daemon meters itself, as `beatbgp serve` does. *)
  Metrics.set_enabled true;
  let server = Server.build (config kind) in
  Server.listen server ~port:0 ~port_ready:(fun port -> Printf.printf "%d\n%!" port)

(* ---- client connections ----------------------------------------------- *)

(* The daemon leaves Nagle's algorithm on for the sockets it accepts, so
   a response waits while an earlier one is unacknowledged.  Against a
   client that delays its ACKs, each response then waits for the next
   request to carry that ACK, and latency locks to the per-connection
   request period (6.8 ms at serve_cold's rate, against 1.4 ms).  The
   generator acknowledges every read at once, so the latency it
   measures is the daemon's work, not that interaction. *)
external quickack : Unix.file_descr -> unit = "e2e_quickack" [@@noalloc]

type conn = {
  fd : Unix.file_descr;
  reader : Frames.t;
  outbuf : Buffer.t;  (** requests not yet handed to [outq] *)
  outq : string Queue.t;
  mutable out_off : int;
  pending : (int * string) Queue.t;  (** request id, line *)
  mutable dead : bool;  (** the socket failed or hit end of stream *)
  mutable dropped : bool;  (** ... and that has been counted *)
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  {
    fd;
    reader = Frames.create ();
    outbuf = Buffer.create 4096;
    outq = Queue.create ();
    out_off = 0;
    pending = Queue.create ();
    dead = false;
    dropped = false;
  }

let rec flush c =
  if (not c.dead) && not (Queue.is_empty c.outq) then begin
    let s = Queue.peek c.outq in
    match Unix.single_write_substring c.fd s c.out_off (String.length s - c.out_off) with
    | n when c.out_off + n = String.length s ->
        ignore (Queue.pop c.outq);
        c.out_off <- 0;
        flush c
    | n -> c.out_off <- c.out_off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> c.dead <- true
  end

(* The client side of a run: connections, the checker, and what each
   request id was. *)
type client = {
  cs : conn array;
  check : Check.t;
  expect : string -> Check.expect;
  mutable verbs : (int, string) Hashtbl.t option;  (** set while recording *)
}

let drop cl c =
  c.dead <- true;
  if not c.dropped then begin
    c.dropped <- true;
    Check.dropped cl.check;
    Check.unanswered cl.check (Queue.length c.pending);
    Queue.clear c.pending
  end

let send cl ~conn id line =
  let c = cl.cs.(conn) in
  Check.sent cl.check;
  Option.iter (fun h -> Hashtbl.replace h id (verb line)) cl.verbs;
  if c.dropped then Check.unanswered cl.check 1
  else begin
    Queue.push (id, line) c.pending;
    Buffer.add_string c.outbuf line;
    Buffer.add_char c.outbuf '\n'
  end

(* Read what is there and hand back the ids answered. *)
let receive cl c =
  let answered = ref [] in
  (match Frames.read_fd c.reader c.fd with
  | 0 -> drop cl c
  | _ ->
      quickack c.fd;
      let rec frames () =
        match Frames.next c.reader with
        | Frames.Need_more -> ()
        | Frames.Malformed -> drop cl c
        | Frames.Frame { ok; raw } -> (
            match Queue.take_opt c.pending with
            | None -> drop cl c
            | Some (id, line) ->
                ignore (Check.answered cl.check (cl.expect line) ~ok ~raw : bool);
                answered := id :: !answered;
                frames ())
      in
      frames ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop cl c);
  List.rev !answered

(* Requests queued since the last wait leave in one write per
   connection: the generator shares the host's cores with the daemon,
   so it spends as few syscalls per request as it can. *)
let wait cl timeout =
  Array.iter
    (fun c ->
      if Buffer.length c.outbuf > 0 then begin
        Queue.push (Buffer.contents c.outbuf) c.outq;
        Buffer.clear c.outbuf;
        flush c
      end)
    cl.cs;
  let live = List.filter (fun c -> not c.dead) (Array.to_list cl.cs) in
  let rset = List.map (fun c -> c.fd) live in
  let wset = List.filter_map (fun c -> if Queue.is_empty c.outq then None else Some c.fd) live in
  let r, w, _ = Server.retry_eintr (fun () -> Unix.select rset wset [] timeout) in
  List.iter (fun c -> if List.mem c.fd w then flush c) live;
  let answered =
    List.concat_map (fun c -> if List.mem c.fd r && not c.dead then receive cl c else []) live
  in
  Array.iter (fun c -> if c.dead then drop cl c) cl.cs;
  answered

let io cl gens : Loadgen.io =
  {
    Loadgen.now = Unix.gettimeofday;
    send = (fun ~conn id -> send cl ~conn id (gens.(conn) ()));
    wait = wait cl;
  }

(* One request outside the measured phases (set-up probe, STATS, QUIT):
   the framed answer, or None if none came within [grace]. *)
let request c line =
  Queue.push (line ^ "\n") c.outq;
  flush c;
  let deadline = Unix.gettimeofday () +. grace in
  let rec go () =
    match Frames.next c.reader with
    | Frames.Frame { raw; _ } -> Some raw
    | Frames.Malformed -> None
    | Frames.Need_more ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. || c.dead then None
        else begin
          let r, w, _ =
            Server.retry_eintr (fun () ->
                Unix.select [ c.fd ] (if Queue.is_empty c.outq then [] else [ c.fd ]) [] left)
          in
          if w <> [] then flush c;
          if r <> [] then (
            match Frames.read_fd c.reader c.fd with
            | 0 -> c.dead <- true
            | _ -> quickack c.fd
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
            | exception Unix.Unix_error _ -> c.dead <- true);
          go ()
        end
  in
  go ()

(* ---- daemon lifecycle ------------------------------------------------- *)

type daemon = { pid : int; port_in : in_channel; dconns : conn array; setup : float }

let live_pids = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_pids)

(* Exec the daemon and time it until it has answered a first request on
   a fresh connection. *)
let spawn kind =
  let t0 = Unix.gettimeofday () in
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; "--daemon"; name kind |] Unix.stdin w Unix.stderr
  in
  live_pids := pid :: !live_pids;
  Unix.close w;
  let port_in = Unix.in_channel_of_descr r in
  let port =
    match int_of_string_opt (String.trim (input_line port_in)) with
    | Some p -> p
    | None | (exception End_of_file) -> failwith "daemon did not report its port"
  in
  let dconns = Array.init (conns kind) (fun _ -> connect port) in
  if request dconns.(0) "STATS" = None then failwith "daemon did not answer";
  { pid; port_in; dconns; setup = Unix.gettimeofday () -. t0 }

let reap d =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) d.dconns;
  let deadline = Unix.gettimeofday () +. grace in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  go ();
  live_pids := List.filter (( <> ) d.pid) !live_pids;
  close_in d.port_in

let stop d =
  ignore (request d.dconns.(0) "QUIT");
  reap d

(* ---- the TCP run ------------------------------------------------------- *)

type tcp = {
  setup_s : float;
  round_trips : float array;  (** seconds, one request outstanding per connection *)
  open_lat : float array;  (** seconds, due time to answer *)
  open_verbs : string array;  (** verb of each answered open-loop request *)
  late : float array;  (** seconds, due time to send *)
  qps : float array;  (** closed-loop answers per second, per window *)
  rss_mb : float;  (** VmHWM of the closed-loop daemon *)
  stats : string list;  (** STATS body of each phase's daemon *)
  check : Check.t;
}

let field key body =
  (* "key=<int>" anywhere in the STATS body *)
  let k = key ^ "=" in
  String.split_on_char '\n' body
  |> List.concat_map (String.split_on_char ' ')
  |> List.find_map (fun tok ->
         if String.starts_with ~prefix:k tok then
           int_of_string_opt (String.sub tok (String.length k) (String.length tok - String.length k))
         else None)

(* Each measured phase gets a daemon of its own, warmed up with the
   same stream, so every phase starts from the same state: the churn
   clock at zero and the RIB cache filled by the same requests.  On
   one long-lived daemon the closed loop would start wherever the
   earlier phases left the churn timeline, which depends on how fast
   they ran. *)
let phase kind p check expect ~seed f =
  let d = spawn kind in
  let cl = { cs = d.dconns; check; expect; verbs = None } in
  let conns = conns kind in
  let io = io cl (Array.init conns (fun conn -> generator kind p ~seed ~conn)) in
  let warm = Loadgen.closed_loop io ~first_id:0 ~conns ~window ~duration:warmup_s ~grace in
  let r = f cl io ~first_id:warm.Loadgen.issued in
  Array.iter (fun c -> Check.unanswered check (Queue.length c.pending)) cl.cs;
  let stats =
    match request d.dconns.(0) "STATS" with Some raw -> Frames.body raw | None -> ""
  in
  let rss_mb = Proc.peak_rss_mb ~pid:d.pid () in
  stop d;
  (r, stats, rss_mb, d.setup)

let tcp_run kind p expected ~seed ~seconds =
  let check = Check.create () in
  let expect =
    match kind with
    | Churn -> fun _ -> Check.Any_ok
    | Hot | Cold -> fun line -> Check.Exact (Hashtbl.find expected line)
  in
  let phase f = phase kind p check expect ~seed f in
  let conns = conns kind in
  let quarter = seconds /. 4. and half = seconds /. 2. in
  let setups = List.init (setup_reps - 3) (fun _ -> let d = spawn kind in stop d; d.setup) in
  let rt, s1, _, d1 =
    phase (fun _ io ~first_id ->
        Loadgen.closed_loop io ~first_id ~conns ~window:1 ~duration:quarter ~grace)
  in
  let (o, open_verbs), s2, _, d2 =
    phase (fun cl io ~first_id ->
        let verbs = Hashtbl.create 16384 in
        cl.verbs <- Some verbs;
        let o = Loadgen.open_loop io ~first_id ~conns ~rate:(rate kind) ~duration:quarter ~grace in
        cl.verbs <- None;
        (o, List.map (fun (k, _) -> Hashtbl.find verbs (first_id + k)) (Loadgen.answered o)))
  in
  let c, s3, rss_mb, d3 =
    phase (fun _ io ~first_id -> Loadgen.closed_loop io ~first_id ~conns ~window ~duration:half ~grace)
  in
  {
    setup_s = Tail.median (Array.of_list (setups @ [ d1; d2; d3 ]));
    round_trips = rt.Loadgen.round_trips;
    open_lat = Loadgen.latencies o;
    open_verbs = Array.of_list open_verbs;
    late = Loadgen.lateness o;
    qps = Loadgen.window_rates c ~duration:half ~width:0.5;
    rss_mb;
    stats = [ s1; s2; s3 ];
    check;
  }

let fmt_tail unit_scale unit_name a =
  match Tail.tail a with
  | Some t -> Printf.sprintf "%s %.3f %s (n=%d)" t.Tail.label (t.Tail.value *. unit_scale) unit_name t.Tail.n
  | None -> Printf.sprintf "n=%d, too few samples for a tail" (Array.length a)

let tail_value a = match Tail.tail a with Some t -> t.Tail.value | None -> Float.nan

let tcp_notes kind t =
  let closed = List.nth t.stats 2 in
  let hits = field "hits" closed and misses = field "misses" closed in
  [
    Printf.sprintf "daemon domains %d, %d connections, open loop %.0f req/s, closed loop window %d"
      (Pool.domain_count ()) (conns kind) (rate kind) window;
    Printf.sprintf "round trip p50 %.3f ms; tail %s" (1000. *. Tail.median t.round_trips)
      (fmt_tail 1000. "ms" t.round_trips);
    Printf.sprintf "open-loop latency p50 %.3f ms; tail %s" (1000. *. Tail.median t.open_lat)
      (fmt_tail 1000. "ms" t.open_lat);
    Printf.sprintf "closed-loop windows (req/s): %s"
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") t.qps)));
    Printf.sprintf "generator lateness: p99 %.3f ms; %s"
      (1000. *. Tail.quantile t.late 0.99)
      ("tail " ^ fmt_tail 1000. "ms" t.late);
    (match (hits, misses) with
    | Some h, Some m when h + m > 0 ->
        Printf.sprintf "closed-loop daemon rib cache: %d hits, %d misses (hit ratio %.3f)" h m
          (float_of_int h /. float_of_int (h + m))
    | _ -> "closed-loop daemon rib cache: no lookups");
    "daemon timelines: pending="
    ^ String.concat ","
        (List.map
           (fun s -> match field "pending" s with Some n -> string_of_int n | None -> "?")
           t.stats);
    Check.summary t.check;
  ]

(* serve_churn's daemons must still have churn ahead when their phase
   ends, or its last requests measured a quiet daemon. *)
let verdict kind t =
  let quiet =
    kind = Churn
    && List.exists (fun s -> Option.value ~default:0 (field "pending" s) <= 0) t.stats
  in
  {
    Report.attempted = t.check.Check.attempted;
    failed = Check.failed t.check + (if quiet then 1 else 0);
    notes = tcp_notes kind t @ (if quiet then [ "FAIL: churn timeline ran dry" ] else []);
  }

let untraced kind ~seed ~seconds =
  let p, expected = reference () in
  let t = tcp_run kind p expected ~seed ~seconds in
  ( verdict kind t,
    [
      Report.row ~n:setup_reps "setup_s" t.setup_s;
      Report.row ~n:(Array.length t.round_trips) ~note:"round trip, one request outstanding"
        "op_p50_ms" (Tail.median t.round_trips *. 1000.);
      Report.row ~n:(Array.length t.qps) ~note:"closed loop, median of 0.5 s windows"
        "throughput" (Tail.median t.qps);
      Report.row "peak_rss_mb" t.rss_mb;
    ] )

(* ---- the traced run: in-process replay --------------------------------- *)

(* The stream the connections started with, interleaved as the open
   loop alternates them. *)
let replay_stream kind p ~seed ~n =
  let conns = conns kind in
  let gens = Array.init conns (fun conn -> generator kind p ~seed ~conn) in
  Array.init n (fun k -> gens.(k mod conns) ())

(* Churn replays advance the engine every 16 requests, as the daemon's
   batch boundary does; the replay servers themselves have batch = 0. *)
let advance_every = function Churn -> Server.default_config.Server.batch | Hot | Cold -> 0

let replay_server kind = Server.build { (config kind) with Server.batch = 0 }

let advance server = ignore (Server.handle server (Protocol.Advance Server.default_config.Server.batch_minutes))

let replay_plain kind lines =
  let server = replay_server kind in
  let every = advance_every kind in
  let t0 = Unix.gettimeofday () in
  Array.iteri
    (fun k line ->
      ignore (serve_one server line : string);
      if every > 0 && (k + 1) mod every = 0 then advance server)
    lines;
  Unix.gettimeofday () -. t0

type timed = {
  wall : float;
  parse : float array;
  handle : float array;
  frame : float array;
  adv : float array;
  t_verbs : string array;
  events : int;
  hits : int;
  misses : int;
  minor_words : float;
  majors : int;
  heap_words : int;
}

let replay_timed kind lines =
  let server = replay_server kind in
  let every = advance_every kind in
  let n = Array.length lines in
  let parse = Array.make n 0. and handle = Array.make n 0. and frame = Array.make n 0. in
  let adv = ref [] in
  let ev0 = Engine.events_processed (Server.engine server) in
  let h0 = Rib_cache.hits () and m0 = Rib_cache.misses () in
  Metrics.reset ();
  Span.reset ();
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  Array.iteri
    (fun k line ->
      let a = Unix.gettimeofday () in
      let req = Protocol.parse line in
      let b = Unix.gettimeofday () in
      let res =
        match req with Ok r -> Server.handle server r | Error e -> Error e
      in
      let c = Unix.gettimeofday () in
      ignore
        (match res with
        | Ok body -> Protocol.frame ~ok:true body
        | Error e -> Protocol.frame ~ok:false e);
      let d = Unix.gettimeofday () in
      parse.(k) <- b -. a;
      handle.(k) <- c -. b;
      frame.(k) <- d -. c;
      if every > 0 && (k + 1) mod every = 0 then begin
        let e = Unix.gettimeofday () in
        advance server;
        adv := (Unix.gettimeofday () -. e) :: !adv
      end)
    lines;
  let wall = Unix.gettimeofday () -. t0 in
  let gc1 = Gc.quick_stat () in
  {
    wall;
    parse;
    handle;
    frame;
    adv = Array.of_list (List.rev !adv);
    t_verbs = Array.map verb lines;
    events = Engine.events_processed (Server.engine server) - ev0;
    hits = Rib_cache.hits () - h0;
    misses = Rib_cache.misses () - m0;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    majors = gc1.Gc.major_collections - gc0.Gc.major_collections;
    heap_words = gc1.Gc.heap_words;
  }

(* The same stream split over the connections and served through the
   round executor (Server.serve_streams) at the default pool size. *)
let replay_executor kind lines =
  let server = replay_server kind in
  let streams =
    let conns = conns kind in
    Array.init conns (fun c ->
        List.filteri (fun k _ -> k mod conns = c) (Array.to_list lines))
  in
  let busy = ref 0. in
  let t0 = Unix.gettimeofday () in
  ignore (Server.serve_streams ~on_latency:(fun _ us -> busy := !busy +. (us /. 1e6)) server streams);
  (Unix.gettimeofday () -. t0, !busy)

let select_verb verbs a v =
  Array.of_list (List.filteri (fun k _ -> verbs.(k) = v) (Array.to_list a))

let traced kind ~seed ~seconds =
  let p, expected = reference () in
  let t = tcp_run kind p expected ~seed ~seconds in
  let n = Array.length t.open_lat in
  let lines = replay_stream kind p ~seed ~n:(max 1 n) in
  let domains = Pool.domain_count () in
  (* The executor replay meters itself, as the daemon does. *)
  Metrics.set_enabled true;
  let exec_wall, exec_busy = replay_executor kind lines in
  (* Sequential replays on one domain: exact span self times and GC
     counts.  The timed one runs last, so the span tree the trace files
     get is its own. *)
  Pool.set_domain_count 1;
  Metrics.set_enabled false;
  let plain = replay_plain kind lines in
  Metrics.set_enabled true;
  let r = replay_timed kind lines in
  let roots = Span.tree () in
  let layer_rows, _ = Layers.flatten roots in
  Pool.set_domain_count domains;
  let nf = float_of_int (Array.length lines) in
  let us x = x *. 1e6 in
  let layer l = List.assoc l layer_rows in
  let per_request = Array.init (Array.length lines) (fun k -> r.parse.(k) +. r.handle.(k) +. r.frame.(k)) in
  let handle_s = Tail.sum r.handle and adv_s = Tail.sum r.adv in
  let counter name = float_of_int (Metrics.counter_value (Metrics.counter name)) in
  let verb_rows =
    List.concat_map
      (fun v ->
        let h = select_verb r.t_verbs r.handle v in
        [
          Report.row ~n:(Array.length h) (Printf.sprintf "serve.handle.%s_us.p50" v) (us (Tail.median h));
          Report.row ~n:(Array.length h)
            ~note:(match Tail.tail h with Some tl -> tl.Tail.label | None -> "")
            (Printf.sprintf "serve.handle.%s_us.tail" v)
            (us (tail_value h));
        ])
      Spec.handle_verbs
  in
  (* Layer table of the timed replay: the harness timers, with the
     bgp spans taken out of the handle and advance time they ran in. *)
  let table =
    [
      ("serve.parse", Tail.sum r.parse);
      ("serve.handle", handle_s -. layer "bgp.propagate_s");
      ("bgp.propagate", layer "bgp.propagate_s");
      ("serve.frame", Tail.sum r.frame);
      ("dynamics.advance", adv_s -. layer "bgp.reconverge_s");
      ("bgp.reconverge", layer "bgp.reconverge_s");
    ]
  in
  let accounted = List.fold_left (fun a (_, v) -> a +. v) 0. table in
  let unattributed = r.wall -. accounted in
  let rows =
    [
      Report.row "bgp.propagate_s" (layer "bgp.propagate_s");
      Report.row "bgp.propagate_calls" (float_of_int (Layers.calls "bgp.propagate" roots));
      Report.row "bgp.ases_visited" (counter "bgp.ases_visited");
      Report.row "bgp.reconverge_s" (layer "bgp.reconverge_s");
      Report.row "bgp.reconverge_dirty" (counter "bgp.reconverge_dirty_ases");
      Report.row "bgp.rib_cache.hit_ratio"
        (if r.hits + r.misses > 0 then float_of_int r.hits /. float_of_int (r.hits + r.misses) else 0.);
      Report.row "bgp.rib_cache.misses" (float_of_int r.misses);
      Report.row "latency.rtt_samples" (counter "latency.rtt.samples");
      Report.row "latency.congestion_samples" (counter "latency.congestion.samples");
      Report.row ~note:"executor replay" "par.busy_s" exec_busy;
      Report.row ~note:"executor replay" "par.idle_s" (Float.max 0. ((float_of_int domains *. exec_wall) -. exec_busy));
      Report.row ~n:(Array.length r.adv) "dynamics.advance_us.p50" (us (Tail.median r.adv));
      Report.row ~n:(Array.length r.adv)
        ~note:(match Tail.tail r.adv with Some tl -> tl.Tail.label | None -> "")
        "dynamics.advance_us.tail" (us (tail_value r.adv));
      Report.row "dynamics.events" (float_of_int r.events);
      Report.row ~n:(Array.length lines) "serve.parse_us" (us (Tail.mean r.parse));
      Report.row ~n:(Array.length lines) "serve.frame_us" (us (Tail.mean r.frame));
    ]
    @ verb_rows
    @ [
        Report.row ~n:(Array.length lines) ~note:"(executor wall - replay handle time) per request"
          "serve.executor_us" (us ((exec_wall -. handle_s) /. nf));
        Report.row ~note:"TCP open-loop p50 - replay p50" "serve.transport_us"
          (us (Tail.median t.open_lat -. Tail.median per_request));
        Report.row ~n ~note:(Printf.sprintf "open loop at %.0f req/s" (rate kind))
          "serve.open_p50_ms" (1000. *. Tail.median t.open_lat);
        Report.row ~n
          ~note:(match Tail.tail t.open_lat with Some tl -> tl.Tail.label | None -> "")
          "serve.tail_ms" (1000. *. tail_value t.open_lat);
        Report.row "gc.minor_words_per_op" (r.minor_words /. nf);
        Report.row "gc.major_collections" (float_of_int r.majors);
        Report.row "gc.heap_mb" (float_of_int (r.heap_words * (Sys.word_size / 8)) /. 1048576.);
        Report.row "unattributed_s" unattributed;
        Report.row ~note:(Printf.sprintf "timed replay %.3f s vs plain %.3f s" r.wall plain)
          "trace_overhead_pct" ((r.wall -. plain) /. plain *. 100.);
        Report.row ~n:(Array.length t.late) ~note:"p99" "loadgen.late_ms"
          (1000. *. Tail.quantile t.late 0.99);
      ]
  in
  let v = verdict kind t in
  let per_verb_transport =
    List.filter_map
      (fun vb ->
        let tcp = select_verb t.open_verbs t.open_lat vb in
        let rep = select_verb r.t_verbs per_request vb in
        if Array.length tcp = 0 || Array.length rep = 0 then None
        else Some (Printf.sprintf "%s %.1f us" vb (us (Tail.median tcp -. Tail.median rep))))
      Spec.handle_verbs
  in
  let notes =
    v.Report.notes
    @ [
        Printf.sprintf "replayed %d requests in-process (1 domain, batch 0)" (Array.length lines);
        "layer table of the timed replay (s): "
        ^ String.concat ", " (List.map (fun (l, s) -> Printf.sprintf "%s %.4f" l s) table)
        ^ Printf.sprintf ", unattributed %.4f = %.4f s wall" unattributed r.wall;
        "transport per verb: " ^ String.concat ", " per_verb_transport;
      ]
  in
  Report.write_trace ~workload:(name kind) ~seed ~domains ~rows
    ~layer_rows:(table @ [ (Layers.unattributed, unattributed) ]);
  ({ v with Report.notes }, rows)
