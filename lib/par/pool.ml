module Metrics = Netsim_obs.Metrics
module Span = Netsim_obs.Span
module Recorder = Netsim_obs.Recorder
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
   in draining a job.  Nested [map]s check it and run sequentially. *)
let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get in_worker_key

(* Stable worker id for utilization reporting: 0 is the main domain,
   spawned workers get 1..k in spawn order. *)
let worker_id_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let worker_id () = Domain.DLS.get worker_id_key

(* ---- work queue ------------------------------------------------------ *)

(* One job at a time: [map] is only ever entered from the main domain
   (nested calls short-circuit to sequential), so a single slot
   guarded by [mu]/[cond] suffices.  Tasks are claimed by atomic
   fetch-and-add on [next]; [completed] counts finished tasks and the
   last finisher wakes the main domain. *)
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
      let finished = 1 + Atomic.fetch_and_add job.completed 1 in
      if finished = job.n then begin
        Mutex.lock mu;
        Condition.broadcast cond;
        Mutex.unlock mu
      end;
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

(* Job/task counters are deterministic (same increments in the
   sequential and parallel paths), so they live in the regular
   registry; wall-clock utilization goes to runtime gauges only. *)
let c_jobs = Metrics.counter "par.jobs"
let c_tasks = Metrics.counter "par.tasks"

(* The single job slot above means only one domain may run the
   parallel path at a time.  Historically [map] was only entered from
   the main domain, but the serve daemon's listener runs in its own
   domain — so the slot is claimed by CAS, and a caller that loses the
   race (two non-worker domains mapping at once) degrades to the
   sequential path instead of corrupting [current]. *)
let job_slot = Atomic.make false

let map (type a b) (f : a -> b) (arr : a array) : b array =
  let n = Array.length arr in
  let d = Stdlib.min (domain_count ()) n in
  Metrics.incr c_jobs;
  Metrics.incr ~by:n c_tasks;
  if d <= 1 || in_worker ()
     || not (Atomic.compare_and_set job_slot false true)
  then
    (* Sequential, but with the same per-task RIB-cache shard
       discipline as the parallel path, so cache hit/miss behaviour —
       and therefore traced metrics — is byte-identical for any domain
       count. *)
    Array.map
      (fun x ->
        let shard = Rib_cache.fresh_shard () in
        let r = Rib_cache.capture shard (fun () -> f x) in
        Rib_cache.absorb shard;
        r)
      arr
  else begin
    Fun.protect ~finally:(fun () -> Atomic.set job_slot false) @@ fun () ->
    let tracing = Metrics.enabled () in
    let recording = Recorder.enabled () in
    let results : b option array = Array.make n None in
    let obs : (Metrics.captured * Span.captured) option array =
      Array.make n None
    in
    let rec_bufs : Recorder.captured option array = Array.make n None in
    let ribs : Rib_cache.shard array =
      Array.init n (fun _ -> Rib_cache.fresh_shard ())
    in
    let task_s = Array.make n 0. in
    let task_worker = Array.make n 0 in
    let errors : exn option array = Array.make n None in
    let run i =
      try
        let t0 = if tracing then Unix.gettimeofday () else 0. in
        (Rib_cache.capture ribs.(i) @@ fun () ->
         let go () =
           if tracing then begin
             let (r, spans), events =
               Metrics.capture (fun () -> Span.capture (fun () -> f arr.(i)))
             in
             results.(i) <- Some r;
             obs.(i) <- Some (events, spans)
           end
           else results.(i) <- Some (f arr.(i))
         in
         if recording then begin
           let (), events = Recorder.capture go in
           rec_bufs.(i) <- Some events
         end
         else go ());
        if tracing then begin
          task_s.(i) <- Unix.gettimeofday () -. t0;
          task_worker.(i) <- worker_id ()
        end
      with e -> errors.(i) <- Some e
    in
    let t_job = if tracing then Unix.gettimeofday () else 0. in
    let job = { n; next = Atomic.make 0; completed = Atomic.make 0; run } in
    Mutex.lock mu;
    ensure_workers (d - 1);
    current := Some job;
    Condition.broadcast cond;
    Mutex.unlock mu;
    (* The main domain participates as the d-th worker. *)
    Domain.DLS.set in_worker_key true;
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set in_worker_key false)
      (fun () -> drain job);
    Mutex.lock mu;
    while Atomic.get job.completed < n do
      Condition.wait cond mu
    done;
    current := None;
    Mutex.unlock mu;
    (* Fan-in: merge per-task observability in submission order, then
       surface the lowest-index failure (sequential semantics: obs of
       the tasks "before" the failure are kept). *)
    let first_error = ref None in
    Array.iteri
      (fun i e ->
        match (!first_error, e) with
        | None, Some _ -> first_error := Some i
        | _ -> ())
      errors;
    let merge_until =
      match !first_error with Some i -> i | None -> n
    in
    for i = 0 to merge_until - 1 do
      (* Recorder events first: the task's own events must land in the
         ring before the evict events that [Rib_cache.absorb] emits
         while re-inserting the task's shard — that is the order a
         sequential run produces. *)
      (if recording then
         match rec_bufs.(i) with
         | Some events -> Recorder.absorb events
         | None -> ());
      (if tracing then
         match obs.(i) with
         | Some (events, spans) ->
             Metrics.absorb events;
             Span.absorb spans
         | None -> ());
      Rib_cache.absorb ribs.(i)
    done;
    (match !first_error with
    | Some i -> ( match errors.(i) with Some e -> raise e | None -> ())
    | None -> ());
    (* Utilization summary: wall-clock numbers, so runtime gauges only
       (kept out of the deterministic metrics document). *)
    if tracing then begin
      let wall_ms = (Unix.gettimeofday () -. t_job) *. 1000. in
      let busy_ms = ref 0. in
      let by_worker = Hashtbl.create 8 in
      Array.iteri
        (fun i s ->
          busy_ms := !busy_ms +. (s *. 1000.);
          let w = task_worker.(i) in
          let b, t =
            match Hashtbl.find_opt by_worker w with
            | Some (b, t) -> (b, t)
            | None -> (0., 0)
          in
          Hashtbl.replace by_worker w (b +. (s *. 1000.), t + 1))
        task_s;
      Metrics.set_runtime "par.job.wall_ms" wall_ms;
      Metrics.set_runtime "par.job.busy_ms" !busy_ms;
      Metrics.set_runtime "par.job.idle_ms"
        (Float.max 0. ((wall_ms *. float_of_int d) -. !busy_ms));
      Metrics.set_runtime "par.job.tasks" (float_of_int n);
      Hashtbl.iter
        (fun w (b, t) ->
          Metrics.set_runtime (Printf.sprintf "par.d%d.busy_ms" w) b;
          Metrics.set_runtime (Printf.sprintf "par.d%d.tasks" w)
            (float_of_int t))
        by_worker
    end;
    Array.map
      (function
        | Some r -> r
        | None -> invalid_arg "Pool.map: missing result")
      results
  end

let mapi f arr =
  let idx = Array.mapi (fun i x -> (i, x)) arr in
  map (fun (i, x) -> f i x) idx

let map_list f l = Array.to_list (map f (Array.of_list l))

(* Batched fan-out: contiguous chunks of [batch] items become the pool
   tasks, so a per-chunk computation (Rib_cache.run_batch) runs under
   [map]'s usual per-task shard + capture/absorb discipline.  [batch]
   sets the unit of parallel work and of per-task overhead only: the
   chunking is deterministic in the input order alone, so results are
   byte-identical at any domain count and chunk size. *)
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
