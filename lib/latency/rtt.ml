module Dist = Netsim_prng.Dist
module Walk = Netsim_bgp.Walk

type flow = {
  walk : Walk.t;
  terminal : Propagation.terminal;
  access : Congestion.entity option;
  dest_net : Congestion.entity option;
  extra_ms : float;
}

let make_flow ?access ?dest_net ?(extra_ms = 0.) ~terminal walk =
  { walk; terminal; access; dest_net; extra_ms }

let floor_ms params topo cong flow =
  let propagation =
    Propagation.walk_rtt_ms params topo flow.walk ~terminal:flow.terminal
  in
  let access =
    match flow.access with
    | Some (Congestion.Access id) -> Congestion.access_base_ms cong id
    | Some (Congestion.Link _ | Congestion.Dest_net _) | None -> 0.
  in
  propagation +. access +. flow.extra_ms

let congestion_ms cong ~time_min flow =
  let links =
    List.fold_left
      (fun acc (h : Walk.hop) ->
        acc
        +. Congestion.entity_delay_ms cong
             (Congestion.Link h.Walk.link.Netsim_topo.Relation.id)
             ~time_min)
      0. flow.walk.Walk.hops
  in
  let shared entity =
    match entity with
    | Some e -> Congestion.entity_delay_ms cong e ~time_min
    | None -> 0.
  in
  links +. shared flow.access +. shared flow.dest_net

let c_samples = Netsim_obs.Metrics.counter "latency.rtt.samples"
let h_rtt = Netsim_obs.Metrics.histogram "latency.rtt.ms"

(* Within one window only the jitter varies: the level (floor plus
   congestion) is computed once, and [level *. jitter] is the same
   float a per-sample recomputation gives.  An empty or negative
   [count] evaluates no congestion ([Array.init] rejects negatives). *)
let samples_ms cong ~rng ~time_min ~count flow =
  if count <= 0 then Array.init count (fun _ -> 0.)
  else begin
    let params = Congestion.params cong in
    let level =
      floor_ms params (Congestion.topology cong) cong flow
      +. congestion_ms cong ~time_min flow
    in
    let sigma = params.Params.minrtt_jitter_sigma in
    let tracing = Netsim_obs.Metrics.enabled () in
    if tracing then Netsim_obs.Metrics.add c_samples count;
    Array.init count (fun _ ->
        let jitter =
          if sigma <= 0. then 1. else Dist.lognormal rng ~mu:0. ~sigma
        in
        let v = level *. jitter in
        if tracing then Netsim_obs.Metrics.observe h_rtt v;
        v)
  end

let sample_ms cong ~rng ~time_min flow =
  (samples_ms cong ~rng ~time_min ~count:1 flow).(0)

let median_of_samples cong ~rng ~time_min ~count flow =
  Netsim_stats.Quantile.median (samples_ms cong ~rng ~time_min ~count flow)

let pooled_samples_ms cong ~rng ~windows ~count flow =
  List.map
    (fun w ->
      samples_ms cong ~rng ~time_min:(Netsim_traffic.Window.mid_time w) ~count
        flow)
    windows
  |> Array.concat

let pooled_median_ms cong ~rng ~windows ~count flow =
  Netsim_stats.Quantile.median (pooled_samples_ms cong ~rng ~windows ~count flow)
