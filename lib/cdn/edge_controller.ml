module Sm = Netsim_prng.Splitmix
module Ci = Netsim_stats.Ci
module Quantile = Netsim_stats.Quantile
module Rtt = Netsim_latency.Rtt
module Window = Netsim_traffic.Window

type route_measurement = {
  option_route : Egress.option_route;
  median_ms : float;
  ci : Ci.interval;
  samples : int;
}

type window_result = {
  entry : Egress.entry;
  window : Window.t;
  per_route : route_measurement list;
  bgp : route_measurement;
  best_alternate : route_measurement option;
}

let measure_route cong ~rng ~samples_per_route window (o : Egress.option_route) =
  let time_min = Window.mid_time window in
  let values =
    Rtt.samples_ms cong ~rng ~time_min ~count:samples_per_route o.Egress.flow
  in
  {
    option_route = o;
    median_ms = Quantile.median values;
    ci = Ci.median_binomial values;
    samples = samples_per_route;
  }

let measure_window cong ~rng ~samples_per_route window (entry : Egress.entry) =
  Netsim_obs.Span.with_ ~name:"measure.edge_window" @@ fun () ->
  let per_route =
    List.map
      (measure_route cong ~rng ~samples_per_route window)
      entry.Egress.options
  in
  match per_route with
  | [] -> invalid_arg "Edge_controller.measure_window: entry without options"
  | bgp :: alternates ->
      let best_alternate =
        List.fold_left
          (fun acc m ->
            match acc with
            | None -> Some m
            | Some b -> if m.median_ms < b.median_ms then Some m else acc)
          None alternates
      in
      { entry; window; per_route; bgp; best_alternate }

let decide cong ~rng ~samples_per_route ~time_min options =
  List.fold_left
    (fun acc (o : Egress.option_route) ->
      let m =
        Rtt.median_of_samples cong ~rng ~time_min ~count:samples_per_route
          o.Egress.flow
      in
      match acc with
      | Some (_, best) when best <= m -> acc
      | _ -> Some (o, m))
    None options

let improvement_ms r =
  match r.best_alternate with
  | None -> None
  | Some alt -> Some (r.bgp.median_ms -. alt.median_ms)

let improvement_bounds r =
  match r.best_alternate with
  | None -> None
  | Some alt ->
      Some
        ( r.bgp.ci.Ci.lo -. alt.ci.Ci.hi,
          r.bgp.ci.Ci.hi -. alt.ci.Ci.lo )
