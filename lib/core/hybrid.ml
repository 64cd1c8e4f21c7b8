module Sm = Netsim_prng.Splitmix
module Cdf = Netsim_stats.Cdf
module Series = Netsim_stats.Series
module Quantile = Netsim_stats.Quantile
module Window = Netsim_traffic.Window
module Prefix = Netsim_traffic.Prefix
module Anycast = Netsim_cdn.Anycast
module Redirector = Netsim_cdn.Redirector
module Rtt = Netsim_latency.Rtt

type point = {
  margin_ms : float;
  frac_improved : float;
  frac_worse : float;
  mean_improvement_ms : float;
  redirected_fraction : float;
}

type result = { figure : Figure.t; points : point list }

let eval_margin (ms : Scenario.microsoft) ~rng ~train_windows ~eval_windows
    ~margin =
  let table =
    Redirector.train ~margin ~client_sample:4 ms.Scenario.ms_system
      ~assignment:ms.Scenario.ms_assignment ~prefixes:ms.Scenario.ms_prefixes
      ~cong:ms.Scenario.ms_congestion ~rng ~windows:train_windows
      ~samples_per_window:3
  in
  let samples =
    Rtt.pooled_samples_ms ms.Scenario.ms_congestion ~rng ~windows:eval_windows
      ~count:3
  in
  let improvements = ref [] in
  Array.iter
    (fun (p : Prefix.t) ->
      let choice = Redirector.choice_for table ms.Scenario.ms_assignment p in
      match
        ( Anycast.anycast_flow ms.Scenario.ms_system p,
          Redirector.flow_for_choice ms.Scenario.ms_system p choice )
      with
      | Some af, Some cf ->
          let improvement =
            Quantile.median (samples af) -. Quantile.median (samples cf)
          in
          improvements := (improvement, p.Prefix.weight) :: !improvements
      | _, _ -> ())
    ms.Scenario.ms_prefixes;
  let cdf = Cdf.of_weighted (Array.of_list !improvements) in
  {
    margin_ms = margin;
    frac_improved = Cdf.fraction_above cdf 2.;
    frac_worse = Cdf.fraction_below cdf (-2.);
    mean_improvement_ms = Cdf.mean cdf;
    redirected_fraction = Redirector.redirected_fraction table;
  }

let run ?(margins = [ 0.; 5.; 10.; 25.; 50. ]) (ms : Scenario.microsoft) =
  let rng = Sm.of_label ms.Scenario.ms_root "hybrid" in
  let windows = Window.windows ~days:ms.Scenario.ms_days ~length_min:120. in
  let n = List.length windows in
  let train_windows = List.filteri (fun i _ -> i < n / 2) windows in
  let eval_windows = List.filteri (fun i _ -> i >= n / 2) windows in
  let points =
    List.map
      (fun margin ->
        eval_margin ms ~rng ~train_windows ~eval_windows ~margin)
      margins
  in
  let series f name =
    Series.make name (List.map (fun p -> (p.margin_ms, f p)) points)
  in
  let stats =
    match (List.nth_opt points 0, List.nth_opt points (List.length points - 1)) with
    | Some agg, Some cons ->
        [
          ("aggressive_frac_worse", agg.frac_worse);
          ("conservative_frac_worse", cons.frac_worse);
          ("aggressive_mean_improvement_ms", agg.mean_improvement_ms);
          ("conservative_mean_improvement_ms", cons.mean_improvement_ms);
          ("aggressive_redirected", agg.redirected_fraction);
          ("conservative_redirected", cons.redirected_fraction);
        ]
    | _, _ -> []
  in
  let figure =
    Figure.make ~id:"hybrid"
      ~title:"Hybrid anycast+redirection: margin sweep"
      ~x_label:"Redirection margin (ms)" ~y_label:"Fraction / ms" ~stats
      [
        series (fun p -> p.frac_improved) "frac improved";
        series (fun p -> p.frac_worse) "frac worse";
        series (fun p -> p.redirected_fraction) "redirected resolvers";
      ]
  in
  { figure; points }
