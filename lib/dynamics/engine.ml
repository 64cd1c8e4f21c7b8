module Topology = Netsim_topo.Topology
module Relation = Netsim_topo.Relation
module Propagate = Netsim_bgp.Propagate
module Announce = Netsim_bgp.Announce
module Congestion = Netsim_latency.Congestion

type tracked = {
  t_origin : int;
  t_config : Announce.t;
  t_withdrawn : Announce.t;
  mutable t_state : Propagate.state;
  mutable t_active : bool;
}

type convergence = {
  cv_time : float;
  cv_event : Event.t;
  cv_dirty : int;
  cv_states : int;
  cv_full_runs : int;
}

type t = {
  base_topo : Topology.t;
  cong : Congestion.t option;
  mutable topo : Topology.t;
  mutable down : int list;  (** ascending link ids *)
  mutable tracked : tracked list;  (** insertion order *)
  timeline : Event.t Timeline.t;
  mutable now_min : float;
  mutable processed : int;
  mutable log : (float * Event.t) list;  (** reversed *)
  mutable convergence : convergence list;  (** reversed *)
  mutable processes : process list;  (** subscription order *)
}

and process = t -> time:float -> Event.t -> unit

let c_events = Netsim_obs.Metrics.counter "dynamics.events"
let c_link_deltas = Netsim_obs.Metrics.counter "dynamics.link_deltas"
let h_dirty = Netsim_obs.Metrics.histogram "dynamics.reconverge.dirty_entries"

let create ?congestion base_topo =
  {
    base_topo;
    cong = congestion;
    topo = base_topo;
    down = [];
    tracked = [];
    timeline = Timeline.create ();
    now_min = 0.;
    processed = 0;
    log = [];
    convergence = [];
    processes = [];
  }

let restore ?congestion ~base ~down ~now () =
  let n_links = Topology.link_count base in
  List.iter
    (fun l ->
      if l < 0 || l >= n_links then
        invalid_arg "Engine.restore: down link id not in base topology")
    down;
  let down = List.sort_uniq compare down in
  let t = create ?congestion base in
  t.down <- down;
  if down <> [] then t.topo <- Topology.remove_links base down;
  t.now_min <- now;
  t

let withdrawn_of config =
  Announce.with_overrides config (fun _ ->
      Some { Announce.export = false; prepend = 0; no_export = false })

let track t config =
  let state = Propagate.run t.topo config in
  t.tracked <-
    t.tracked
    @ [
        {
          t_origin = config.Announce.origin;
          t_config = config;
          t_withdrawn = withdrawn_of config;
          t_state = state;
          t_active = true;
        };
      ]

let track_state t config ~state ~active =
  if Propagate.origin state <> config.Announce.origin then
    invalid_arg "Engine.track_state: state origin <> config origin";
  t.tracked <-
    t.tracked
    @ [
        {
          t_origin = config.Announce.origin;
          t_config = config;
          t_withdrawn = withdrawn_of config;
          t_state = state;
          t_active = active;
        };
      ]

let pending t = Timeline.to_list t.timeline

let tracked_prefixes t =
  List.map (fun tr -> (tr.t_origin, tr.t_active, tr.t_state)) t.tracked

let routing t ~origin =
  match List.find_opt (fun tr -> tr.t_origin = origin) t.tracked with
  | Some tr -> tr.t_state
  | None -> raise Not_found

let subscribe t p = t.processes <- t.processes @ [ p ]
let schedule t ~at ev = Timeline.schedule t.timeline ~at ev

let now t = t.now_min
let topology t = t.topo
let base_topology t = t.base_topo
let congestion t = t.cong
let link_is_up t l = not (List.mem l t.down)
let down_links t = t.down
let events_processed t = t.processed
let event_log t = List.rev t.log
let convergence_log t = List.rev t.convergence

(* Shard reconvergence across the domain pool only when there is
   enough work to amortize the fan-out: tracked prefixes are
   independent (each repairs its own state against the shared new
   topology), but a single-prefix engine — the dynamics benchmarks —
   must not pay pool overhead. *)
let reconverge_min_shard = 4

(* Apply one link delta: update the down set and topology, then
   incrementally reconverge every active tracked prefix.  Returns the
   dirty-entry total (0 if the delta was a no-op). *)
let apply_link_delta t dir l =
  let applies =
    match dir with
    | `Down -> link_is_up t l && l >= 0 && l < Topology.link_count t.base_topo
    | `Up -> not (link_is_up t l)
  in
  if not applies then None
  else begin
    Netsim_obs.Metrics.incr c_link_deltas;
    (t.down <-
       (match dir with
       | `Down -> List.sort compare (l :: t.down)
       | `Up -> List.filter (fun x -> x <> l) t.down));
    t.topo <- Topology.remove_links t.base_topo t.down;
    let delta =
      match dir with
      | `Down -> Propagate.Link_removed l
      | `Up -> Propagate.Link_added l
    in
    let tracked = Array.of_list t.tracked in
    let step tr =
      if tr.t_active then begin
        let state, stats = Propagate.reconverge tr.t_state ~topo:t.topo delta in
        (state, Propagate.rs_dirty stats, true)
      end
      else
        (* A withdrawn prefix has no routes to repair; just rebase
           its empty state onto the new topology. *)
        (Propagate.run t.topo tr.t_withdrawn, 0, false)
    in
    let results =
      if Array.length tracked >= reconverge_min_shard then
        Netsim_par.Pool.map step tracked
      else Array.map step tracked
    in
    let dirty = ref 0 and states = ref 0 in
    Array.iteri
      (fun i (state, d, active) ->
        tracked.(i).t_state <- state;
        dirty := !dirty + d;
        if active then incr states)
      results;
    if Netsim_obs.Metrics.enabled () then
      Netsim_obs.Metrics.observe h_dirty (float_of_int !dirty);
    Some (!dirty, !states)
  end

let record_convergence t ~time ~event ~dirty ~states ~full_runs =
  if states > 0 || full_runs > 0 then begin
    t.convergence <-
      {
        cv_time = time;
        cv_event = event;
        cv_dirty = dirty;
        cv_states = states;
        cv_full_runs = full_runs;
      }
      :: t.convergence;
    if Netsim_obs.Recorder.enabled () then
      Netsim_obs.Recorder.(
        record ~kind:"dynamics.converge"
          [
            F ("t_min", time);
            I ("dirty", dirty);
            I ("states", states);
            I ("full_runs", full_runs);
          ])
  end

let handle t ~time ev =
  let acc_dirty = ref 0 and acc_states = ref 0 and acc_full = ref 0 in
  let link dir l =
    match apply_link_delta t dir l with
    | None -> ()
    | Some (dirty, states) ->
        acc_dirty := !acc_dirty + dirty;
        acc_states := !acc_states + states
  in
  (match ev with
  | Event.Link_down l -> link `Down l
  | Event.Link_up l -> link `Up l
  | Event.Link_flap { link_id; down_minutes } ->
      if link_is_up t link_id then begin
        link `Down link_id;
        schedule t ~at:(time +. down_minutes) (Event.Link_up link_id)
      end
  | Event.Site_down { asid; metro } ->
      List.iter (link `Down) (Topology.link_ids_of t.base_topo ~metro asid)
  | Event.Site_up { asid; metro } ->
      List.iter (link `Up) (Topology.link_ids_of t.base_topo ~metro asid)
  | Event.Congestion_onset { link_id; extra_ms; duration_min } -> (
      match t.cong with
      | None -> ()
      | Some cong ->
          Congestion.add_event_delay_ms cong ~link_id ~ms:extra_ms;
          schedule t
            ~at:(time +. duration_min)
            (Event.Congestion_decay { link_id; extra_ms }))
  | Event.Congestion_decay { link_id; extra_ms } -> (
      match t.cong with
      | None -> ()
      | Some cong -> Congestion.remove_event_delay_ms cong ~link_id ~ms:extra_ms)
  | Event.Withdraw_prefix { origin } ->
      List.iter
        (fun tr ->
          if tr.t_origin = origin && tr.t_active then begin
            tr.t_active <- false;
            tr.t_state <- Propagate.run t.topo tr.t_withdrawn;
            incr acc_full
          end)
        t.tracked
  | Event.Reannounce_prefix { origin } ->
      List.iter
        (fun tr ->
          if tr.t_origin = origin && not tr.t_active then begin
            tr.t_active <- true;
            tr.t_state <- Propagate.run t.topo tr.t_config;
            incr acc_full
          end)
        t.tracked
  | Event.Measurement_tick _ | Event.Mark _ -> ());
  record_convergence t ~time ~event:ev ~dirty:!acc_dirty ~states:!acc_states
    ~full_runs:!acc_full

let step t =
  match Timeline.pop t.timeline with
  | None -> None
  | Some (at, ev) ->
      (* The clock never runs backwards: events scheduled in the past
         are processed at the current time. *)
      t.now_min <- Float.max t.now_min at;
      let time = t.now_min in
      Netsim_obs.Span.with_ ~name:("dynamics." ^ Event.kind ev) (fun () ->
          Netsim_obs.Metrics.incr c_events;
          if Netsim_obs.Recorder.enabled () then
            Netsim_obs.Recorder.(
              record ~kind:"dynamics.event"
                [
                  F ("t_min", time);
                  S ("event", Event.kind ev);
                  S ("label", Event.label ev);
                ]);
          handle t ~time ev;
          List.iter (fun p -> p t ~time ev) t.processes);
      t.processed <- t.processed + 1;
      t.log <- (time, ev) :: t.log;
      Some (time, ev)

let run t ~until =
  let continue = ref true in
  while !continue do
    match Timeline.peek t.timeline with
    | Some (at, _) when at <= until -> ignore (step t)
    | Some _ | None -> continue := false
  done;
  t.now_min <- Float.max t.now_min until
