module Rtt = Netsim_latency.Rtt
module Walk = Netsim_bgp.Walk
module Topology = Netsim_topo.Topology
module World = Netsim_geo.World
module City = Netsim_geo.City

let c_pings = Netsim_obs.Metrics.counter "measure.pings"

let ping_samples cong ~rng ~days ~per_day ~pings_per_round flow =
  Netsim_obs.Span.with_ ~name:"measure.ping_campaign" @@ fun () ->
  let rounds = int_of_float (Float.round (days *. float_of_int per_day)) in
  let interval = 1440. /. float_of_int per_day in
  Netsim_obs.Metrics.add c_pings (rounds * pings_per_round);
  Array.init rounds (fun r ->
      let time_min = (float_of_int r +. 0.5) *. interval in
      Array.fold_left
        (fun best v -> if v < best then v else best)
        infinity
        (Rtt.samples_ms cong ~rng ~time_min ~count:pings_per_round flow))

let ping_median cong ~rng ~days ~per_day ~pings_per_round flow =
  let samples = ping_samples cong ~rng ~days ~per_day ~pings_per_round flow in
  Netsim_stats.Quantile.median samples

type trace = { as_path : int list; entry_metro : int; ingress_km : float }

let traceroute ~start_city walk =
  let entry_metro = Walk.entry_metro walk in
  let ingress_km =
    City.distance_km World.cities.(start_city) World.cities.(entry_metro)
  in
  { as_path = Walk.as_path walk; entry_metro; ingress_km }

let single_as_fraction walk =
  let carries =
    List.map
      (fun (h : Walk.hop) ->
        ( h.Walk.asid,
          City.distance_km World.cities.(h.Walk.ingress)
            World.cities.(h.Walk.egress) ))
      walk.Walk.hops
  in
  let total = List.fold_left (fun acc (_, d) -> acc +. d) 0. carries in
  if total <= 0. then 1.
  else begin
    let per_as = Hashtbl.create 8 in
    List.iter
      (fun (asid, d) ->
        let cur =
          match Hashtbl.find_opt per_as asid with Some v -> v | None -> 0.
        in
        Hashtbl.replace per_as asid (cur +. d))
      carries;
    let best = Hashtbl.fold (fun _ v acc -> Float.max v acc) per_as 0. in
    best /. total
  end
