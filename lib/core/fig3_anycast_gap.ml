module Sm = Netsim_prng.Splitmix
module Cdf = Netsim_stats.Cdf
module Series = Netsim_stats.Series
module Window = Netsim_traffic.Window
module Prefix = Netsim_traffic.Prefix
module Region = Netsim_geo.Region
module World = Netsim_geo.World
module City = Netsim_geo.City
module Anycast = Netsim_cdn.Anycast
module Rtt = Netsim_latency.Rtt
module Walk = Netsim_bgp.Walk

type per_client = {
  prefix : Prefix.t;
  anycast_ms : float;
  best_unicast_ms : float;
  best_site : int;
  anycast_site : int;
}

type result = { figure : Figure.t; clients : per_client list }

let nearest_sites sites ~city ~k =
  let c = World.cities.(city) in
  List.map (fun s -> (City.distance_km c World.cities.(s), s)) sites
  |> List.sort compare
  |> List.filteri (fun i _ -> i < k)
  |> List.map snd

let measure_clients ?(nearby_sites = 8) (ms : Scenario.microsoft) =
  let rng = Sm.of_label ms.Scenario.ms_root "fig3" in
  let windows = Window.windows ~days:ms.Scenario.ms_days ~length_min:240. in
  let samples = 4 in
  let sites = Anycast.sites ms.Scenario.ms_system in
  Array.to_list ms.Scenario.ms_prefixes
  |> List.filter_map (fun (prefix : Prefix.t) ->
         match Anycast.anycast_flow ms.Scenario.ms_system prefix with
         | None -> None
         | Some any_flow ->
             let anycast_ms =
               Rtt.pooled_median_ms ms.Scenario.ms_congestion ~rng ~windows
                 ~count:samples any_flow
             in
             let anycast_site = Walk.entry_metro any_flow.Rtt.walk in
             let candidates =
               nearest_sites sites ~city:prefix.Prefix.city ~k:nearby_sites
             in
             let best =
               List.fold_left
                 (fun acc site ->
                   match
                     Anycast.unicast_flow ms.Scenario.ms_system prefix ~site
                   with
                   | None -> acc
                   | Some flow ->
                       let m =
                         Rtt.pooled_median_ms ms.Scenario.ms_congestion ~rng
                           ~windows ~count:samples flow
                       in
                       (match acc with
                       | None -> Some (m, site)
                       | Some (bm, _) -> if m < bm then Some (m, site) else acc))
                 None candidates
             in
             (match best with
             | None -> None
             | Some (best_unicast_ms, best_site) ->
                 Some
                   { prefix; anycast_ms; best_unicast_ms; best_site; anycast_site }))

let run ?nearby_sites ms =
  Netsim_obs.Span.with_ ~name:"fig3.run" @@ fun () ->
  let clients =
    Netsim_obs.Span.with_ ~name:"fig3.measure_clients" (fun () ->
        measure_clients ?nearby_sites ms)
  in
  let gap c = Float.max 0. (c.anycast_ms -. c.best_unicast_ms) in
  let in_scope scope c =
    let city = World.cities.(c.prefix.Prefix.city) in
    Region.in_scope scope city.City.continent ~country:city.City.country
  in
  let ccdf_series name scope =
    let values =
      List.filter (in_scope scope) clients
      |> List.map (fun c -> (gap c, c.prefix.Prefix.weight))
    in
    match values with
    | [] -> Series.make name []
    | l -> Series.make name (Cdf.ccdf_points (Cdf.of_weighted (Array.of_list l)))
  in
  let world_cdf =
    Cdf.of_weighted
      (Array.of_list (List.map (fun c -> (gap c, c.prefix.Prefix.weight)) clients))
  in
  let stats =
    [
      ("frac_within_10ms_world", Cdf.fraction_below world_cdf 10.);
      ("frac_worse_25ms_world", Cdf.fraction_above world_cdf 25.);
      ("frac_worse_100ms_world", Cdf.fraction_above world_cdf 100.);
      ("median_gap_ms_world", Cdf.median world_cdf);
    ]
  in
  let figure =
    Figure.make ~id:"fig3"
      ~title:"Anycast vs best unicast front-end"
      ~x_label:"Anycast - best unicast (ms)"
      ~y_label:"CCDF of requests" ~stats
      [
        ccdf_series "Europe" Region.Europe_only;
        ccdf_series "World" Region.World;
        ccdf_series "United States" Region.United_states;
      ]
  in
  { figure; clients }
