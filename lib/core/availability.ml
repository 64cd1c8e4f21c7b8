module Sm = Netsim_prng.Splitmix
module Series = Netsim_stats.Series
module Quantile = Netsim_stats.Quantile
module Topology = Netsim_topo.Topology
module Relation = Netsim_topo.Relation
module Announce = Netsim_bgp.Announce
module Propagate = Netsim_bgp.Propagate
module Rib_cache = Netsim_bgp.Rib_cache
module Walk = Netsim_bgp.Walk
module Anycast = Netsim_cdn.Anycast
module Deployment = Netsim_cdn.Deployment
module Redirector = Netsim_cdn.Redirector
module Window = Netsim_traffic.Window
module Prefix = Netsim_traffic.Prefix
module Params = Netsim_latency.Params
module Propagation = Netsim_latency.Propagation

type site_failure = {
  site : int;
  affected_share : float;
  stranded_share : float;
  anycast_delta_ms : float;
  dns_outage_share : float;
  dns_outage_client_seconds : float;
}

type result = {
  figure : Figure.t;
  failures : site_failure list;
  mean_anycast_delta_ms : float;
  mean_dns_outage_share : float;
}

(* Congestion-free floor of a client's anycast path on a given
   propagation state; None if unreachable. *)
let floor_to_anycast topo state (p : Prefix.t) =
  match Walk.from_metro state ~src:p.Prefix.asid ~start_metro:p.Prefix.city with
  | None -> None
  | Some walk ->
      Some
        ( Walk.entry_metro walk,
          Propagation.walk_rtt_ms Params.default topo walk
            ~terminal:Propagation.At_entry )

let fail_site (ms : Scenario.microsoft) ~table ~ttl_seconds ~site =
  let system = ms.Scenario.ms_system in
  let d = Anycast.deployment system in
  let topo = d.Deployment.topo in
  let asid = d.Deployment.asid in
  let before = Rib_cache.run topo (Announce.default ~origin:asid) in
  let failed_topo =
    Topology.remove_links topo (Topology.link_ids_of topo ~metro:site asid)
  in
  (* The failed topology has a fresh generation stamp, so this can
     never hit a stale entry; [before], by contrast, is the same
     (topo, config) for every site in the sweep and hits after the
     first. *)
  let after = Rib_cache.run failed_topo (Announce.default ~origin:asid) in
  let affected = ref 0. and stranded = ref 0. in
  let deltas = ref [] in
  let dns_outage = ref 0. in
  Array.iter
    (fun (p : Prefix.t) ->
      (match floor_to_anycast topo before p with
      | Some (entry, floor_before) when entry = site -> (
          affected := !affected +. p.Prefix.weight;
          match floor_to_anycast failed_topo after p with
          | None -> stranded := !stranded +. p.Prefix.weight
          | Some (_, floor_after) ->
              deltas := (floor_after -. floor_before, p.Prefix.weight) :: !deltas)
      | Some _ | None -> ());
      (* DNS-redirected clients pinned to the failed site lose service
         for a TTL. *)
      match Redirector.choice_for table ms.Scenario.ms_assignment p with
      | Redirector.Use_site s when s = site ->
          dns_outage := !dns_outage +. p.Prefix.weight
      | Redirector.Use_site _ | Redirector.Use_anycast -> ())
    ms.Scenario.ms_prefixes;
  let anycast_delta_ms =
    match !deltas with
    | [] -> 0.
    | l -> Quantile.weighted_quantile (Array.of_list l) 0.5
  in
  {
    site;
    affected_share = !affected;
    stranded_share = !stranded;
    anycast_delta_ms;
    dns_outage_share = !dns_outage;
    dns_outage_client_seconds = !dns_outage *. ttl_seconds;
  }

let run ?(ttl_seconds = 300.) ?(max_sites = 8) (ms : Scenario.microsoft) =
  let rng = Sm.of_label ms.Scenario.ms_root "availability" in
  (* Train the redirector once on a short history so DNS pinning
     reflects its real decisions. *)
  let windows = Window.windows ~days:(ms.Scenario.ms_days /. 2.) ~length_min:180. in
  let table =
    Redirector.train ms.Scenario.ms_system
      ~assignment:ms.Scenario.ms_assignment ~prefixes:ms.Scenario.ms_prefixes
      ~cong:ms.Scenario.ms_congestion ~rng ~windows ~samples_per_window:2
  in
  (* Rank sites by catchment share and fail the biggest ones. *)
  let catchment = Anycast.catchment ms.Scenario.ms_system in
  let share_of site =
    Netsim_bgp.Catchment.clients_of_site catchment site
    |> List.fold_left
         (fun acc asid ->
           Array.fold_left
             (fun acc (p : Prefix.t) ->
               if p.Prefix.asid = asid then acc +. p.Prefix.weight else acc)
             acc ms.Scenario.ms_prefixes)
         0.
  in
  let sites =
    Anycast.sites ms.Scenario.ms_system
    |> List.map (fun s -> (share_of s, s))
    |> List.sort (fun a b -> compare (fst b) (fst a))
    |> List.filteri (fun i _ -> i < max_sites)
    |> List.map snd
  in
  let failures =
    List.map (fun site -> fail_site ms ~table ~ttl_seconds ~site) sites
    (* Order the figure by failed-site identity (metro id) so the
       x-axis is a stable label, not a rank that reshuffles whenever
       catchment shares move. *)
    |> List.sort (fun a b -> compare a.site b.site)
  in
  let mean f =
    match failures with
    | [] -> 0.
    | l -> List.fold_left (fun acc x -> acc +. f x) 0. l /. float_of_int (List.length l)
  in
  let mean_anycast_delta_ms = mean (fun f -> f.anycast_delta_ms) in
  let mean_dns_outage_share = mean (fun f -> f.dns_outage_share) in
  let stats =
    [
      ("mean_anycast_delta_ms", mean_anycast_delta_ms);
      ("mean_dns_outage_share", mean_dns_outage_share);
      ("mean_affected_share", mean (fun f -> f.affected_share));
      ("max_stranded_share", List.fold_left (fun acc f -> Float.max acc f.stranded_share) 0. failures);
      ("ttl_seconds", ttl_seconds);
    ]
  in
  let series f name =
    Series.make name
      (List.map (fun x -> (float_of_int x.site, f x)) failures)
  in
  let figure =
    Figure.make ~id:"availability"
      ~title:"Site failures: anycast reconvergence vs DNS pinning"
      ~x_label:"Failed site (metro id)"
      ~y_label:"Impact" ~stats
      [
        series (fun f -> f.affected_share) "affected traffic share";
        series (fun f -> f.anycast_delta_ms /. 100.) "anycast delta (100ms units)";
        series (fun f -> f.dns_outage_share) "DNS-pinned outage share";
      ]
  in
  { figure; failures; mean_anycast_delta_ms; mean_dns_outage_share }
