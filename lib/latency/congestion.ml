module Sm = Netsim_prng.Splitmix
module Dist = Netsim_prng.Dist
module Topology = Netsim_topo.Topology
module Relation = Netsim_topo.Relation
module World = Netsim_geo.World
module City = Netsim_geo.City

type entity = Link of int | Access of int | Dest_net of int

type t = {
  params : Params.t;
  topo : Topology.t;
  root : Sm.t;  (** Never advanced; only used to derive labeled substreams. *)
  base_util : float array;
  chronic : bool array;
      (** Chronically saturated links are demand-bound all day: their
          utilization ignores the diurnal swing. *)
  offered_load : float option array;
  event_extra : float array;
      (** Timeline-driven extra delay per link (ms), maintained by the
          dynamics engine's congestion onset/decay events.  Additive so
          overlapping episodes compose. *)
}

let create params topo ~seed =
  let root = Sm.create seed in
  let util_rng = Sm.of_label root "base-util" in
  let n_links = Topology.link_count topo in
  let chronic = Array.make n_links false in
  let links = Topology.links topo in
  let base_util =
    Array.init n_links (fun i ->
        (* Chronic saturation happens on peering links: PNIs have
           dedicated but finite capacity (the situation Edge Fabric
           was built for), whereas transit is upgraded on demand.  A
           chronic transit session would synchronize whole PoPs, which
           is not what the measurements show. *)
        let peering = Relation.is_peering links.(i).Relation.kind in
        if
          peering
          && Dist.bernoulli util_rng ~p:params.Params.chronic_link_prob
        then begin
          chronic.(i) <- true;
          Dist.uniform util_rng ~lo:params.Params.chronic_util_lo
            ~hi:params.Params.chronic_util_hi
        end
        else
          Dist.uniform util_rng ~lo:params.Params.base_util_lo
            ~hi:params.Params.base_util_hi)
  in
  {
    params;
    topo;
    root;
    base_util;
    chronic;
    offered_load = Array.make n_links None;
    event_extra = Array.make n_links 0.;
  }

let params t = t.params
let topology t = t.topo

let set_offered_load t ~link_id ~gbps = t.offered_load.(link_id) <- Some gbps

let clear_offered_loads t =
  Array.fill t.offered_load 0 (Array.length t.offered_load) None

let add_event_delay_ms t ~link_id ~ms =
  t.event_extra.(link_id) <- t.event_extra.(link_id) +. ms

let remove_event_delay_ms t ~link_id ~ms =
  t.event_extra.(link_id) <- Float.max 0. (t.event_extra.(link_id) -. ms)

let event_delay_ms t ~link_id = t.event_extra.(link_id)

let clear_event_delays t =
  Array.fill t.event_extra 0 (Array.length t.event_extra) 0.

let minutes_per_day = 1440.

let diurnal_factor t ~metro ~time_min =
  let lon = World.cities.(metro).City.coord.Netsim_geo.Coord.lon in
  let utc_hour = Float.rem (time_min /. 60.) 24. in
  let local_hour = Float.rem (utc_hour +. (lon /. 15.) +. 48.) 24. in
  (* Load peaks in the local evening (20:00). *)
  1.
  +. t.params.Params.diurnal_amplitude
     *. cos (2. *. Float.pi *. (local_hour -. 20.) /. 24.)

let utilization t ~link_id ~time_min =
  let link = (Topology.links t.topo).(link_id) in
  let base =
    match t.offered_load.(link_id) with
    | Some gbps -> gbps /. link.Relation.capacity_gbps
    | None -> t.base_util.(link_id)
  in
  let u =
    if t.chronic.(link_id) && t.offered_load.(link_id) = None then base
    else base *. diurnal_factor t ~metro:link.Relation.metro ~time_min
  in
  Float.max 0. (Float.min 0.97 u)

let queue_delay_ms t ~link_id ~time_min =
  let u = utilization t ~link_id ~time_min in
  t.params.Params.queue_scale_ms *. (u ** 4.) /. (1. -. u)

(* The episode substream of [(entity, day)] is labelled
   "ep-<kind>-<id>-<day>"; the label is hashed in place, not built. *)
let episode_rng t entity ~day =
  match entity with
  | Link i -> Sm.of_label_int2 t.root "ep-link-" i day
  | Access i -> Sm.of_label_int2 t.root "ep-access-" i day
  | Dest_net i -> Sm.of_label_int2 t.root "ep-destnet-" i day

let episode_probability t = function
  | Link _ -> t.params.Params.transit_episode_per_day
  | Access _ | Dest_net _ -> t.params.Params.access_episode_per_day

(* Episodes are re-derived (not cached) from (entity, day): with some
   probability the entity has one episode that day, with a random
   start, exponential duration and lognormal severity. *)
let episode_delay_ms t entity ~time_min =
  let p = episode_probability t entity in
  if p <= 0. then 0.
  else begin
    let day = int_of_float (floor (time_min /. minutes_per_day)) in
    let rng = episode_rng t entity ~day in
    if not (Dist.bernoulli rng ~p) then 0.
    else begin
      let start =
        (float_of_int day *. minutes_per_day)
        +. Dist.uniform rng ~lo:0. ~hi:minutes_per_day
      in
      let duration =
        Dist.exponential rng ~rate:(1. /. t.params.Params.episode_mean_minutes)
      in
      let severity =
        Dist.lognormal rng
          ~mu:(log t.params.Params.episode_severity_ms)
          ~sigma:t.params.Params.episode_severity_sigma
      in
      if time_min >= start && time_min <= start +. duration then severity
      else 0.
    end
  end

(* Re-derived on every call, like episodes: one label hash and one
   lognormal draw, and no shared table for pool domains to race on. *)
let access_base_ms t access_id =
  if t.params.Params.access_base_ms <= 0. then 0.
  else
    Dist.lognormal
      (Sm.of_label_int t.root "access-base-" access_id)
      ~mu:(log t.params.Params.access_base_ms)
      ~sigma:t.params.Params.access_spread

let access_rate_mbps t access_id =
  Dist.lognormal
    (Sm.of_label_int t.root "access-rate-" access_id)
    ~mu:(log 120.) ~sigma:0.6

let entity_delay_ms t entity ~time_min ~episodes =
  let episode = episode_delay_ms t entity ~time_min in
  if episode > 0. then incr episodes;
  match entity with
  | Link i -> episode +. queue_delay_ms t ~link_id:i ~time_min +. t.event_extra.(i)
  | Access _ | Dest_net _ -> episode
