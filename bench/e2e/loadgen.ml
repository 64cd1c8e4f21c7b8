(* Load generation, kept apart from sockets and clocks so the
   accounting can be tested against a fake clock.

   [io.send ~conn id] queues request [id] on connection [conn];
   [io.wait timeout] blocks for at most [timeout] seconds and returns
   the ids answered meanwhile.  One thread drives every connection.

   Open loop: request k is due at t0 + k/rate whatever the server is
   doing, requests alternate between connections, and latency runs
   from the due time, so a stall in the server or in the generator
   itself charges every request that fell due during it.  How late the
   generator sent each request is kept as well; a run whose lateness
   tail is not small measured the generator, not the server.

   Closed loop: each connection keeps [window] requests outstanding and
   sends the next one as soon as one is answered; completions inside
   the measured window give the throughput, and with a window of 1 the
   round trips give the latency of a request that never queues. *)

type io = {
  now : unit -> float;
  send : conn:int -> int -> unit;
  wait : float -> int list;
}

type open_run = {
  due : float array;
  sent : float array;
  finished : float array;  (** nan: never answered *)
}

let open_loop io ~first_id ~conns ~rate ~duration ~grace =
  let n = max 1 (int_of_float (rate *. duration)) in
  let t0 = io.now () in
  let due = Array.init n (fun k -> t0 +. (float_of_int k /. rate)) in
  let sent = Array.make n Float.nan and finished = Array.make n Float.nan in
  let next = ref 0 and outstanding = ref 0 in
  let deadline = t0 +. duration +. grace in
  let complete id =
    let k = id - first_id in
    if k >= 0 && k < n && Float.is_nan finished.(k) then begin
      finished.(k) <- io.now ();
      decr outstanding
    end
  in
  while (!next < n || !outstanding > 0) && io.now () < deadline do
    let now = io.now () in
    while !next < n && due.(!next) <= now do
      io.send ~conn:(!next mod conns) (first_id + !next);
      sent.(!next) <- io.now ();
      incr next;
      incr outstanding
    done;
    let until = if !next < n then due.(!next) else deadline in
    List.iter complete (io.wait (Float.max 0. (until -. io.now ())))
  done;
  { due; sent; finished }

let answered r =
  Array.to_list (Array.mapi (fun k f -> (k, f)) r.finished)
  |> List.filter (fun (_, f) -> not (Float.is_nan f))

(* Seconds from due time to answer, answered requests only. *)
let latencies r =
  Array.of_list (List.map (fun (k, f) -> f -. r.due.(k)) (answered r))

(* Seconds from due time to send, for every request sent. *)
let lateness r =
  Array.of_list
    (List.filter_map
       (fun k ->
         if Float.is_nan r.sent.(k) then None else Some (r.sent.(k) -. r.due.(k)))
       (List.init (Array.length r.due) Fun.id))

type closed_run = {
  answers : float array;  (** answer times inside the measured window *)
  round_trips : float array;  (** seconds from send to answer, same requests *)
  start : float;
  issued : int;
  unanswered : int;  (** still outstanding after the drain *)
}

let closed_loop io ~first_id ~conns ~window ~duration ~grace =
  let t0 = io.now () in
  let t_end = t0 +. duration in
  let deadline = t_end +. grace in
  let next_id = ref first_id in
  let pending = Hashtbl.create 64 in
  let send c =
    let id = !next_id in
    incr next_id;
    Hashtbl.replace pending id (c, io.now ());
    io.send ~conn:c id
  in
  for c = 0 to conns - 1 do
    for _ = 1 to window do
      send c
    done
  done;
  let answers = ref [] and round_trips = ref [] in
  while Hashtbl.length pending > 0 && io.now () < deadline do
    let until = if io.now () < t_end then t_end else deadline in
    List.iter
      (fun id ->
        match Hashtbl.find_opt pending id with
        | None -> ()
        | Some (c, sent) ->
            Hashtbl.remove pending id;
            let now = io.now () in
            if now <= t_end then begin
              answers := now :: !answers;
              round_trips := (now -. sent) :: !round_trips;
              send c
            end)
      (io.wait (Float.max 0. (until -. io.now ())))
  done;
  {
    answers = Array.of_list (List.rev !answers);
    round_trips = Array.of_list (List.rev !round_trips);
    start = t0;
    issued = !next_id - first_id;
    unanswered = Hashtbl.length pending;
  }

(* Answers per second in each whole [width]-second window of the
   measured span, so one stalled second shows as one low sample
   instead of dragging a single average. *)
let window_rates r ~duration ~width =
  let k = max 1 (int_of_float (duration /. width)) in
  let counts = Array.make k 0 in
  Array.iter
    (fun t ->
      let i = int_of_float ((t -. r.start) /. width) in
      if i >= 0 && i < k then counts.(i) <- counts.(i) + 1)
    r.answers;
  Array.map (fun c -> float_of_int c /. width) counts
