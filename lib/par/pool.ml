module Metrics = Netsim_obs.Metrics
module Capture = Netsim_obs.Capture
module Rib_cache = Netsim_bgp.Rib_cache

let clamp lo hi v = Stdlib.max lo (Stdlib.min hi v)

let default_domains () =
  match Sys.getenv_opt "NETSIM_DOMAINS" with
  | None | Some "" -> Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> n
      | None ->
          Printf.eprintf
            "netsim: ignoring non-numeric NETSIM_DOMAINS=%S\n%!" s;
          Domain.recommended_domain_count ())

let requested = ref (clamp 1 64 (default_domains ()))
let domain_count () = !requested
let set_domain_count n = requested := clamp 1 64 n

(* Per-domain flag: true while running a pool task.  Workers set it for
   their lifetime; the main domain sets it only while it participates
   in draining a job.  Nested [map]s check it and drain locally. *)
let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Stable worker id for utilization reporting: 0 is the main domain,
   spawned workers get 1..k in spawn order. *)
let worker_id_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

(* ---- work queue ------------------------------------------------------ *)

(* One job at a time in the pool: the domain that claims [job_slot]
   (below) publishes its job in [current], guarded by [mu]/[cond].
   Tasks are claimed by atomic fetch-and-add on [next]; [completed]
   counts finished tasks, and a worker that finishes the last one
   wakes the publishing domain. *)
type job = {
  n : int;
  next : int Atomic.t;
  completed : int Atomic.t;
  run : int -> unit;
}

let mu = Mutex.create ()
let cond = Condition.create ()
let current : job option ref = ref None
let shutting_down = ref false
let workers : unit Domain.t list ref = ref []
let n_workers = ref 0

let drain job =
  let rec go () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.n then begin
      job.run i;
      Atomic.incr job.completed;
      go ()
    end
  in
  go ()

let worker_loop wid () =
  Domain.DLS.set in_worker_key true;
  Domain.DLS.set worker_id_key wid;
  let rec next_job () =
    Mutex.lock mu;
    let rec wait () =
      if !shutting_down then begin
        Mutex.unlock mu;
        None
      end
      else
        match !current with
        | Some j when Atomic.get j.next < j.n ->
            Mutex.unlock mu;
            Some j
        | _ ->
            Condition.wait cond mu;
            wait ()
    in
    match wait () with
    | None -> ()
    | Some j ->
        drain j;
        if Atomic.get j.completed = j.n then begin
          Mutex.lock mu;
          Condition.broadcast cond;
          Mutex.unlock mu
        end;
        next_job ()
  in
  next_job ()

let ensure_workers k =
  while !n_workers < k do
    incr n_workers;
    workers := Domain.spawn (worker_loop !n_workers) :: !workers
  done

let () =
  at_exit (fun () ->
      Mutex.lock mu;
      shutting_down := true;
      Condition.broadcast cond;
      Mutex.unlock mu;
      List.iter Domain.join !workers)

(* ---- deterministic map ----------------------------------------------- *)

(* Job/task counters are deterministic (the same increments at any
   domain count), so they live in the regular registry; wall-clock
   utilization goes to runtime gauges only. *)
let c_jobs = Metrics.counter "par.jobs"
let c_tasks = Metrics.counter "par.tasks"

(* The single job slot above means only one domain may publish a job
   at a time.  The serve daemon's listener runs in its own domain, so
   the slot is claimed by CAS; a caller that loses the race drains its
   job locally instead of corrupting [current]. *)
let job_slot = Atomic.make false

let map (type a b) (f : a -> b) (arr : a array) : b array =
  let n = Array.length arr in
  let d = Stdlib.min (domain_count ()) n in
  Metrics.incr c_jobs;
  Metrics.add c_tasks n;
  let tracing = Metrics.enabled () in
  let results : b option array = Array.make n None in
  let caps = Array.make n Capture.empty in
  let ribs = Array.init n (fun _ -> Rib_cache.fresh_shard ()) in
  let task_s = Array.make n 0. in
  let task_worker = Array.make n 0 in
  let errors : exn option array = Array.make n None in
  (* Every task runs here, whoever drains the job: against its own
     RIB-cache shard and observability capture, so what it leaves
     behind is merged below in submission order. *)
  let run i =
    try
      let t0 = if tracing then Unix.gettimeofday () else 0. in
      let r, cap =
        Capture.run (fun () -> Rib_cache.capture ribs.(i) (fun () -> f arr.(i)))
      in
      results.(i) <- Some r;
      caps.(i) <- cap;
      if tracing then begin
        task_s.(i) <- Unix.gettimeofday () -. t0;
        task_worker.(i) <- Domain.DLS.get worker_id_key
      end
    with e -> errors.(i) <- Some e
  in
  let t_job = if tracing then Unix.gettimeofday () else 0. in
  let job = { n; next = Atomic.make 0; completed = Atomic.make 0; run } in
  (* The pool drains the job only with more than one domain, from
     outside a task, and when the slot is free; otherwise the calling
     domain drains it alone, unpublished.  Either way the same tasks
     run and the fan-in below sees the same buffers. *)
  let pooled =
    d > 1
    && (not (Domain.DLS.get in_worker_key))
    && Atomic.compare_and_set job_slot false true
  in
  if not pooled then drain job
  else begin
    Fun.protect ~finally:(fun () -> Atomic.set job_slot false) @@ fun () ->
    Mutex.lock mu;
    ensure_workers (d - 1);
    current := Some job;
    Condition.broadcast cond;
    Mutex.unlock mu;
    (* The publishing domain participates as the d-th worker ([run]
       never raises). *)
    Domain.DLS.set in_worker_key true;
    drain job;
    Domain.DLS.set in_worker_key false;
    Mutex.lock mu;
    while Atomic.get job.completed < n do
      Condition.wait cond mu
    done;
    current := None;
    Mutex.unlock mu
  end;
  (* Fan-in: merge per-task state in submission order, then surface the
     lowest-index failure.  Tasks before it are merged; the failing
     task's partial buffers, and everything after it, are dropped. *)
  let rec first_error i =
    if i < n && Option.is_none errors.(i) then first_error (i + 1) else i
  in
  let merge_until = first_error 0 in
  for i = 0 to merge_until - 1 do
    Capture.absorb caps.(i);
    Rib_cache.absorb ribs.(i)
  done;
  if merge_until < n then Option.iter raise errors.(merge_until);
  (* Utilization summary of a pool-drained job: wall-clock numbers, so
     runtime gauges only (kept out of the deterministic metrics
     document). *)
  if tracing && pooled then begin
    let wall_ms = (Unix.gettimeofday () -. t_job) *. 1000. in
    let k = 1 + Array.fold_left Stdlib.max 0 task_worker in
    let busy = Array.make k 0. and tasks = Array.make k 0 in
    Array.iteri
      (fun i w ->
        busy.(w) <- busy.(w) +. (task_s.(i) *. 1000.);
        tasks.(w) <- tasks.(w) + 1)
      task_worker;
    let busy_ms = Array.fold_left ( +. ) 0. busy in
    Metrics.set_runtime "par.job.wall_ms" wall_ms;
    Metrics.set_runtime "par.job.busy_ms" busy_ms;
    Metrics.set_runtime "par.job.idle_ms"
      (Float.max 0. ((wall_ms *. float_of_int d) -. busy_ms));
    Metrics.set_runtime "par.job.tasks" (float_of_int n);
    Array.iteri
      (fun w t ->
        if t > 0 then begin
          Metrics.set_runtime (Printf.sprintf "par.d%d.busy_ms" w) busy.(w);
          Metrics.set_runtime (Printf.sprintf "par.d%d.tasks" w)
            (float_of_int t)
        end)
      tasks
  end;
  Array.map
    (function
      | Some r -> r
      | None -> invalid_arg "Pool.map: missing result")
    results

let map_list f l = Array.to_list (map f (Array.of_list l))

(* Each chunk is one [map] task.  The chunking depends on the input
   order alone, so results are byte-identical at any chunk size. *)
let map_batches (type a b) ~batch (f : a array -> b array) (arr : a array) :
    b array =
  if batch <= 0 then invalid_arg "Pool.map_batches: batch must be positive";
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let chunks =
      Array.init
        ((n + batch - 1) / batch)
        (fun c ->
          let lo = c * batch in
          Array.sub arr lo (Stdlib.min batch (n - lo)))
    in
    let results = map f chunks in
    Array.iteri
      (fun c r ->
        if Array.length r <> Array.length chunks.(c) then
          invalid_arg "Pool.map_batches: chunk result length mismatch")
      results;
    Array.concat (Array.to_list results)
  end
