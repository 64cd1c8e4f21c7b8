module Sm = Netsim_prng.Splitmix
module Cdf = Netsim_stats.Cdf
module Series = Netsim_stats.Series
module Window = Netsim_traffic.Window
module Prefix = Netsim_traffic.Prefix
module Relation = Netsim_topo.Relation
module Egress = Netsim_cdn.Egress
module Rtt = Netsim_latency.Rtt

type result = {
  figure : Figure.t;
  peer_vs_transit : (float * float) list;
  private_vs_public : (float * float) list;
}

let clamp lo hi v = Float.max lo (Float.min hi v)

let run (fb : Scenario.facebook) =
  Netsim_obs.Span.with_ ~name:"fig2.run" @@ fun () ->
  let rng = Sm.of_label fb.Scenario.fb_root "fig2" in
  (* Sample a few windows spread over the horizon; per-class medians
     are stable aggregates, not per-window quantities. *)
  let windows =
    Window.windows ~days:fb.Scenario.fb_days ~length_min:180.
  in
  let samples = 5 in
  let peer_vs_transit = ref [] and private_vs_public = ref [] in
  Array.iter
    (fun (entry : Egress.entry) ->
      let weight = entry.Egress.prefix.Prefix.weight in
      (* Median MinRTT of one route option pooled over the horizon. *)
      let median (o : Egress.option_route) =
        Rtt.pooled_median_ms fb.Scenario.fb_congestion ~rng ~windows
          ~count:samples o.Egress.flow
      in
      let best options =
        match options with
        | [] -> None
        | l -> Some (List.fold_left Float.min infinity (List.map median l))
      in
      let peers, non_peers =
        List.partition Egress.is_peer_route entry.Egress.all_options
      in
      let transits = List.filter Egress.is_transit_route non_peers in
      (match (best peers, best transits) with
      | Some p, Some t ->
          peer_vs_transit := (p -. t, weight) :: !peer_vs_transit
      | _, _ -> ());
      let private_peers, public_peers =
        List.partition
          (fun o ->
            match Egress.route_kind o with
            | Relation.Peer_private -> true
            | Relation.Peer_public | Relation.C2p -> false)
          peers
      in
      match (best private_peers, best public_peers) with
      | Some pr, Some pu ->
          private_vs_public := (pr -. pu, weight) :: !private_vs_public
      | _, _ -> ())
    fb.Scenario.fb_entries;
  let peer_vs_transit = List.rev !peer_vs_transit in
  let private_vs_public = List.rev !private_vs_public in
  let series name values =
    match values with
    | [] -> Series.make name []
    | l ->
        Series.make name
          (Cdf.cdf_points
             (Cdf.of_weighted
                (Array.of_list
                   (List.map (fun (d, w) -> (clamp (-10.) 10. d, w)) l))))
  in
  let stats =
    let with_cdf values f =
      match values with
      | [] -> nan
      | l -> f (Cdf.of_weighted (Array.of_list l))
    in
    [
      ( "peer_vs_transit_median_ms",
        with_cdf peer_vs_transit (fun c -> Cdf.median c) );
      ( "peer_vs_transit_frac_within_5ms",
        with_cdf peer_vs_transit (fun c ->
            Cdf.fraction_below c 5. -. Cdf.fraction_below c (-5.)) );
      ( "private_vs_public_median_ms",
        with_cdf private_vs_public (fun c -> Cdf.median c) );
      ( "private_vs_public_frac_within_5ms",
        with_cdf private_vs_public (fun c ->
            Cdf.fraction_below c 5. -. Cdf.fraction_below c (-5.)) );
    ]
  in
  let figure =
    Figure.make ~id:"fig2"
      ~title:"Route-class latency differences at PoPs"
      ~x_label:"Median MinRTT difference (ms)"
      ~y_label:"Cumulative fraction of traffic" ~stats
      [
        series "Peering vs Transit" peer_vs_transit;
        series "Private vs Public" private_vs_public;
      ]
  in
  { figure; peer_vs_transit; private_vs_public }
