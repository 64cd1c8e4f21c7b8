module Sm = Netsim_prng.Splitmix
module Cdf = Netsim_stats.Cdf
module Series = Netsim_stats.Series
module Quantile = Netsim_stats.Quantile
module Window = Netsim_traffic.Window
module Prefix = Netsim_traffic.Prefix
module Anycast = Netsim_cdn.Anycast
module Redirector = Netsim_cdn.Redirector
module Rtt = Netsim_latency.Rtt

type per_client = {
  prefix : Prefix.t;
  choice : Redirector.choice;
  improvement_median_ms : float;
  improvement_p75_ms : float;
}

type result = {
  figure : Figure.t;
  clients : per_client list;
  redirected_fraction : float;
}

let half_split windows =
  let n = List.length windows in
  let rec go i acc = function
    | [] -> (List.rev acc, [])
    | w :: rest ->
        if i < n / 2 then go (i + 1) (w :: acc) rest
        else (List.rev acc, w :: rest)
  in
  go 0 [] windows

let clamp lo hi v = Float.max lo (Float.min hi v)

let run (ms : Scenario.microsoft) =
  Netsim_obs.Span.with_ ~name:"fig4.run" @@ fun () ->
  let rng = Sm.of_label ms.Scenario.ms_root "fig4" in
  let windows = Window.windows ~days:ms.Scenario.ms_days ~length_min:120. in
  let train_windows, eval_windows = half_split windows in
  let table =
    Redirector.train ~client_sample:4 ms.Scenario.ms_system
      ~assignment:ms.Scenario.ms_assignment ~prefixes:ms.Scenario.ms_prefixes
      ~cong:ms.Scenario.ms_congestion ~rng ~windows:train_windows
      ~samples_per_window:3
  in
  let samples = 4 in
  let clients =
    Array.to_list ms.Scenario.ms_prefixes
    |> List.filter_map (fun (prefix : Prefix.t) ->
           let choice =
             Redirector.choice_for table ms.Scenario.ms_assignment prefix
           in
           let anycast_flow = Anycast.anycast_flow ms.Scenario.ms_system prefix in
           let chosen_flow =
             Redirector.flow_for_choice ms.Scenario.ms_system prefix choice
           in
           match (anycast_flow, chosen_flow) with
           | Some af, Some cf ->
               let a =
                 Rtt.pooled_samples_ms ms.Scenario.ms_congestion ~rng
                   ~windows:eval_windows ~count:samples af
               in
               let c =
                 Rtt.pooled_samples_ms ms.Scenario.ms_congestion ~rng
                   ~windows:eval_windows ~count:samples cf
               in
               Some
                 {
                   prefix;
                   choice;
                   improvement_median_ms =
                     Quantile.median a -. Quantile.median c;
                   improvement_p75_ms =
                     Quantile.quantile a 0.75 -. Quantile.quantile c 0.75;
                 }
           | _, _ -> None)
  in
  let weighted f =
    List.map (fun c -> (clamp (-400.) 400. (f c), c.prefix.Prefix.weight)) clients
  in
  let median_cdf =
    Cdf.of_weighted (Array.of_list (weighted (fun c -> c.improvement_median_ms)))
  in
  let p75_cdf =
    Cdf.of_weighted (Array.of_list (weighted (fun c -> c.improvement_p75_ms)))
  in
  let same_band = 2. in
  let stats =
    [
      ("frac_improved_median", Cdf.fraction_above median_cdf same_band);
      ( "frac_worse_median",
        Cdf.fraction_below median_cdf (-.same_band) );
      ("frac_improved_p75", Cdf.fraction_above p75_cdf same_band);
      ("frac_worse_p75", Cdf.fraction_below p75_cdf (-.same_band));
      ("redirected_fraction", Redirector.redirected_fraction table);
    ]
  in
  let figure =
    Figure.make ~id:"fig4"
      ~title:"Improvement over anycast from DNS redirection"
      ~x_label:"Improvement (ms) [anycast - predicted]"
      ~y_label:"CDF of weighted client prefixes" ~stats
      [
        Series.make "Median" (Cdf.cdf_points median_cdf);
        Series.make "75th" (Cdf.cdf_points p75_cdf);
      ]
  in
  {
    figure;
    clients;
    redirected_fraction = Redirector.redirected_fraction table;
  }
