(* Availability under a front-end site failure (the paper's §4):
   watch BGP anycast reconverge around a dead site while
   DNS-redirected clients stay pinned to it for a TTL.

   Run with:  dune exec examples/failover.exe *)

module S = Beatbgp.Scenario
module Topology = Netsim_topo.Topology
module Relation = Netsim_topo.Relation
module Announce = Netsim_bgp.Announce
module Propagate = Netsim_bgp.Propagate
module Walk = Netsim_bgp.Walk
module Anycast = Netsim_cdn.Anycast
module Deployment = Netsim_cdn.Deployment
module Prefix = Netsim_traffic.Prefix
module World = Netsim_geo.World
module City = Netsim_geo.City

let name i = World.cities.(i).City.name

let () =
  let ms = S.microsoft ~sizes:S.test_sizes () in
  let system = ms.S.ms_system in
  let d = Anycast.deployment system in
  let topo = d.Deployment.topo in
  let asid = d.Deployment.asid in
  (* Pick the busiest site by catchment. *)
  let catchment = Anycast.catchment system in
  let busiest =
    Netsim_bgp.Catchment.sites catchment
    |> List.map (fun s ->
           (List.length (Netsim_bgp.Catchment.clients_of_site catchment s), s))
    |> List.sort compare |> List.rev |> List.hd |> snd
  in
  Printf.printf "Failing the busiest front-end: %s\n\n" (name busiest);
  (* Kill every provider session at that metro. *)
  let dead_links = Topology.link_ids_of topo ~metro:busiest asid in
  let failed = Topology.remove_links topo dead_links in
  let before = Propagate.run topo (Announce.default ~origin:asid) in
  let after = Propagate.run failed (Announce.default ~origin:asid) in
  Printf.printf "%-16s %-14s -> %-14s\n" "client" "before" "after";
  print_endline "------------------------------------------------";
  let shown = ref 0 in
  Array.iter
    (fun (p : Prefix.t) ->
      let site state =
        match
          Walk.from_metro state ~src:p.Prefix.asid ~start_metro:p.Prefix.city
        with
        | Some w -> Some (Walk.entry_metro w)
        | None -> None
      in
      match (site before, site after) with
      | Some b, Some a when b = busiest && !shown < 12 ->
          incr shown;
          Printf.printf "%-16s %-14s -> %-14s%s\n" (name p.Prefix.city) (name b)
            (name a)
            (if a = b then "  (!!)" else "")
      | Some b, None when b = busiest ->
          Printf.printf "%-16s %-14s -> STRANDED\n" (name p.Prefix.city) (name b)
      | _ -> ())
    ms.S.ms_prefixes;
  (* The full §4 analysis: all top sites, incl. the DNS-pinning cost. *)
  print_endline "";
  let avail = Beatbgp.Availability.run ms in
  Printf.printf
    "Across the %d largest sites: anycast strands %.1f%%, adds %.0f ms median;\n"
    (List.length avail.Beatbgp.Availability.failures)
    (100.
    *. List.fold_left
         (fun acc (f : Beatbgp.Availability.site_failure) ->
           Float.max acc f.Beatbgp.Availability.stranded_share)
         0. avail.Beatbgp.Availability.failures)
    avail.Beatbgp.Availability.mean_anycast_delta_ms;
  Printf.printf
    "DNS redirection pins %.1f%% of traffic to a dead site for the TTL.\n"
    (100. *. avail.Beatbgp.Availability.mean_dns_outage_share)
