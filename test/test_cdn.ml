(* Tests for the CDN layer: deployment grafting, egress tables, the
   edge controller, anycast/unicast serving, LDNS and the redirector. *)

module Sm = Netsim_prng.Splitmix
module Generator = Netsim_topo.Generator
module Topology = Netsim_topo.Topology
module Asn = Netsim_topo.Asn
module Relation = Netsim_topo.Relation
module Invariants = Netsim_topo.Invariants
module Route = Netsim_bgp.Route
module Walk = Netsim_bgp.Walk
module Params = Netsim_latency.Params
module Congestion = Netsim_latency.Congestion
module Rtt = Netsim_latency.Rtt
module Window = Netsim_traffic.Window
module Prefix = Netsim_traffic.Prefix
module Population = Netsim_traffic.Population
module Deployment = Netsim_cdn.Deployment
module Egress = Netsim_cdn.Egress
module Edge_controller = Netsim_cdn.Edge_controller
module Anycast = Netsim_cdn.Anycast
module Ldns = Netsim_cdn.Ldns
module Redirector = Netsim_cdn.Redirector
module World = Netsim_geo.World
module City = Netsim_geo.City

let base = lazy (Generator.generate Generator.small_params)

let pops () =
  List.map
    (fun n -> (World.find_exn n).City.id)
    [ "New York"; "London"; "Tokyo"; "Sao Paulo"; "Sydney"; "Frankfurt" ]

let deployment =
  lazy
    (Deployment.deploy (Lazy.force base) ~rng:(Sm.create 11)
       (Deployment.default_spec ~name:"CP-TEST" ~pop_metros:(pops ())))

(* ---- Deployment ---- *)

let test_deploy_adds_provider_as () =
  let d = Lazy.force deployment in
  let a = Topology.asn d.Deployment.topo d.Deployment.asid in
  Alcotest.(check bool) "content class" true (a.Asn.klass = Asn.Content);
  Alcotest.(check int) "footprint = pops"
    (List.length d.Deployment.pops)
    (Array.length a.Asn.footprint)

let test_deploy_has_transit_and_peers () =
  let d = Lazy.force deployment in
  Alcotest.(check bool) "has transit sessions" true
    (d.Deployment.transit_link_count > 0);
  Alcotest.(check bool) "has PNIs" true (d.Deployment.pni_count > 0);
  Alcotest.(check bool) "providers present" true
    (Topology.providers d.Deployment.topo d.Deployment.asid <> [])

let test_deploy_transit_at_every_pop () =
  (* The unicast-reachability guarantee: each PoP metro has at least
     one transit session. *)
  let d = Lazy.force deployment in
  let transit_metros =
    Oracle.neighbors d.Deployment.topo d.Deployment.asid
    |> List.filter_map (fun (nb : Oracle.neighbor) ->
           if nb.Oracle.rel = Relation.To_provider then
             Some nb.Oracle.link.Relation.metro
           else None)
  in
  List.iter
    (fun pop ->
      Alcotest.(check bool)
        (Printf.sprintf "transit at pop %d" pop)
        true
        (List.mem pop transit_metros))
    d.Deployment.pops

let test_deploy_invariants_hold () =
  let d = Lazy.force deployment in
  Alcotest.(check (list string)) "grafted topology valid" []
    (Invariants.check d.Deployment.topo)

let test_deploy_peer_fraction_zero () =
  let spec =
    {
      (Deployment.default_spec ~name:"NOPEER" ~pop_metros:(pops ())) with
      Deployment.peer_fraction = 0.;
    }
  in
  let d = Deployment.deploy (Lazy.force base) ~rng:(Sm.create 11) spec in
  Alcotest.(check int) "no PNIs" 0 d.Deployment.pni_count;
  Alcotest.(check int) "no public peers" 0 d.Deployment.public_peer_count

let test_deploy_peer_fraction_monotone () =
  let count fraction =
    let spec =
      {
        (Deployment.default_spec ~name:"FRAC" ~pop_metros:(pops ())) with
        Deployment.peer_fraction = fraction;
      }
    in
    (Deployment.deploy (Lazy.force base) ~rng:(Sm.create 11) spec)
      .Deployment.pni_count
  in
  Alcotest.(check bool) "fewer peers at lower fraction" true
    (count 0.25 <= count 1.0)

let test_deploy_rejects_empty_pops () =
  Alcotest.check_raises "no pops" (Invalid_argument "Deployment.deploy: no PoPs")
    (fun () ->
      ignore
        (Deployment.deploy (Lazy.force base) ~rng:(Sm.create 1)
           (Deployment.default_spec ~name:"X" ~pop_metros:[])))

let test_nearest_pop () =
  let d = Lazy.force deployment in
  let boston = (World.find_exn "Boston").City.id in
  let ny = (World.find_exn "New York").City.id in
  Alcotest.(check int) "Boston served from NY" ny
    (Deployment.nearest_pop d ~city:boston);
  let osaka = (World.find_exn "Osaka").City.id in
  let tokyo = (World.find_exn "Tokyo").City.id in
  Alcotest.(check int) "Osaka served from Tokyo" tokyo
    (Deployment.nearest_pop d ~city:osaka)

(* ---- Egress ---- *)

let prefixes =
  lazy
    (Population.generate (Lazy.force deployment).Deployment.topo
       ~rng:(Sm.create 21) ~n_prefixes:40)

let entries =
  lazy (Egress.compute (Lazy.force deployment) ~prefixes:(Lazy.force prefixes) ~k:3)

let test_egress_entries_exist () =
  let e = Lazy.force entries in
  Alcotest.(check bool) "most prefixes have entries" true
    (Array.length e >= 35)

let test_egress_options_ranked_and_bounded () =
  Array.iter
    (fun (e : Egress.entry) ->
      let n = List.length e.Egress.options in
      Alcotest.(check bool) "1..3 options" true (n >= 1 && n <= 3);
      Alcotest.(check bool) "all_options superset" true
        (List.length e.Egress.all_options >= n))
    (Lazy.force entries)

let test_egress_head_is_most_preferred () =
  (* The head must never be a transit route when a peer route exists. *)
  Array.iter
    (fun (e : Egress.entry) ->
      match e.Egress.options with
      | head :: _ ->
          let has_peer = List.exists Egress.is_peer_route e.Egress.all_options in
          if has_peer then
            Alcotest.(check bool) "peer-first policy" true
              (Egress.is_peer_route head)
      | [] -> Alcotest.fail "entry without options")
    (Lazy.force entries)

let test_egress_serving_pop_is_nearest () =
  let d = Lazy.force deployment in
  Array.iter
    (fun (e : Egress.entry) ->
      Alcotest.(check int) "pop = nearest"
        (Deployment.nearest_pop d ~city:e.Egress.prefix.Prefix.city)
        e.Egress.pop)
    (Lazy.force entries)

let test_egress_flows_end_at_client () =
  let d = Lazy.force deployment in
  Array.iter
    (fun (e : Egress.entry) ->
      List.iter
        (fun (o : Egress.option_route) ->
          let hops = o.Egress.flow.Rtt.walk.Walk.hops in
          (match hops with
          | first :: _ ->
              Alcotest.(check int) "starts at provider" d.Deployment.asid
                first.Walk.asid
          | [] -> Alcotest.fail "empty walk");
          match List.rev hops with
          | last :: _ ->
              Alcotest.(check int) "ends entering the client AS"
                e.Egress.prefix.Prefix.asid
                (Relation.other last.Walk.link last.Walk.asid)
          | [] -> ())
        e.Egress.options)
    (Lazy.force entries)

let test_egress_route_kind_classification () =
  Array.iter
    (fun (e : Egress.entry) ->
      List.iter
        (fun (o : Egress.option_route) ->
          let peer = Egress.is_peer_route o in
          let transit = Egress.is_transit_route o in
          Alcotest.(check bool) "mutually exclusive" false (peer && transit))
        e.Egress.all_options)
    (Lazy.force entries)

(* ---- Edge controller ---- *)

let multi_route_entry =
  lazy
    (match
       Array.to_list (Lazy.force entries)
       |> List.filter (fun (e : Egress.entry) ->
              List.length e.Egress.options >= 2)
     with
    | e :: _ -> e
    | [] -> Alcotest.fail "no multi-route entry in test deployment")

let test_controller_measures_all_routes () =
  let e = Lazy.force multi_route_entry in
  let d = Lazy.force deployment in
  let cong = Congestion.create Params.default d.Deployment.topo ~seed:3 in
  let w = { Window.index = 0; start_min = 0.; length_min = 15. } in
  let r =
    Edge_controller.measure_window cong ~rng:(Sm.create 2) ~samples_per_route:9 w e
  in
  Alcotest.(check int) "one measurement per route"
    (List.length e.Egress.options)
    (List.length r.Edge_controller.per_route);
  Alcotest.(check bool) "alternate identified" true
    (r.Edge_controller.best_alternate <> None)

let test_controller_improvement_consistency () =
  let e = Lazy.force multi_route_entry in
  let d = Lazy.force deployment in
  let cong = Congestion.create Params.default d.Deployment.topo ~seed:3 in
  let w = { Window.index = 1; start_min = 15.; length_min = 15. } in
  let r =
    Edge_controller.measure_window cong ~rng:(Sm.create 2) ~samples_per_route:9 w e
  in
  match (Edge_controller.improvement_ms r, r.Edge_controller.best_alternate) with
  | Some d_ms, Some alt ->
      Alcotest.(check (float 1e-9)) "improvement = bgp - alt"
        (r.Edge_controller.bgp.Edge_controller.median_ms
        -. alt.Edge_controller.median_ms)
        d_ms
  | _, _ -> Alcotest.fail "expected improvement"

let test_controller_bounds_bracket_point_estimate () =
  let e = Lazy.force multi_route_entry in
  let d = Lazy.force deployment in
  let cong = Congestion.create Params.default d.Deployment.topo ~seed:3 in
  let w = { Window.index = 2; start_min = 30.; length_min = 15. } in
  let r =
    Edge_controller.measure_window cong ~rng:(Sm.create 2) ~samples_per_route:15 w e
  in
  match (Edge_controller.improvement_ms r, Edge_controller.improvement_bounds r) with
  | Some d_ms, Some (lo, hi) ->
      Alcotest.(check bool) "lo <= diff <= hi" true (lo <= d_ms && d_ms <= hi)
  | _, _ -> Alcotest.fail "expected bounds"

let test_controller_single_route_entry () =
  let e =
    match
      Array.to_list (Lazy.force entries)
      |> List.filter (fun (e : Egress.entry) ->
             List.length e.Egress.options = 1)
    with
    | e :: _ -> e
    | [] -> raise Not_found
  in
  let d = Lazy.force deployment in
  let cong = Congestion.create Params.default d.Deployment.topo ~seed:3 in
  let w = { Window.index = 0; start_min = 0.; length_min = 15. } in
  let r =
    Edge_controller.measure_window cong ~rng:(Sm.create 2) ~samples_per_route:5 w e
  in
  Alcotest.(check bool) "no alternate" true
    (r.Edge_controller.best_alternate = None);
  Alcotest.(check bool) "no improvement defined" true
    (Edge_controller.improvement_ms r = None)

let test_controller_single_route_entry_guarded () =
  (* Some deployments give every prefix >= 2 routes; skip cleanly. *)
  try test_controller_single_route_entry () with Not_found -> ()

(* ---- Anycast ---- *)

let anycast = lazy (Anycast.make (Lazy.force deployment))

let test_anycast_sites () =
  let a = Lazy.force anycast in
  Alcotest.(check (list int)) "sites = pops"
    (List.sort compare (Lazy.force deployment).Deployment.pops)
    (List.sort compare (Anycast.sites a))

let test_anycast_flows_exist () =
  let a = Lazy.force anycast in
  let covered =
    Array.to_list (Lazy.force prefixes)
    |> List.filter (fun p -> Anycast.anycast_flow a p <> None)
  in
  Alcotest.(check bool) "nearly all clients covered" true
    (List.length covered >= Array.length (Lazy.force prefixes) - 2)

let test_anycast_site_is_entry_metro () =
  let a = Lazy.force anycast in
  Array.iter
    (fun p ->
      match (Anycast.anycast_flow a p, Anycast.anycast_site a p) with
      | Some flow, Some site ->
          Alcotest.(check int) "site = walk entry"
            (Walk.entry_metro flow.Rtt.walk)
            site
      | None, None -> ()
      | _, _ -> Alcotest.fail "flow/site mismatch")
    (Lazy.force prefixes)

let test_unicast_enters_requested_site () =
  let a = Lazy.force anycast in
  let site = List.hd (Anycast.sites a) in
  Array.iter
    (fun p ->
      match Anycast.unicast_flow a p ~site with
      | None -> ()
      | Some flow ->
          Alcotest.(check int) "enters the unicast site" site
            (Walk.entry_metro flow.Rtt.walk))
    (Lazy.force prefixes)

let test_unicast_unknown_site_rejected () =
  let a = Lazy.force anycast in
  Alcotest.check_raises "unknown site"
    (Invalid_argument "Anycast.unicast_flow: unknown site") (fun () ->
      ignore
        (Anycast.unicast_flow a (Lazy.force prefixes).(0) ~site:(-1)))

let test_grooming_changes_catchment_config () =
  let a = Lazy.force anycast in
  let base_config = Anycast.anycast_config a in
  let withheld =
    (* Withhold all announcements at the first site. *)
    let site = List.hd (Anycast.sites a) in
    Netsim_bgp.Announce.with_overrides base_config (fun link ->
        if link.Relation.metro = site then
          Some { Netsim_bgp.Announce.export = false; prepend = 0; no_export = false }
        else None)
  in
  let groomed = Anycast.with_grooming a withheld in
  let site = List.hd (Anycast.sites a) in
  Array.iter
    (fun p ->
      match Anycast.anycast_site groomed p with
      | Some s ->
          Alcotest.(check bool) "withheld site unused" true (s <> site)
      | None -> ())
    (Lazy.force prefixes)

(* ---- Ldns ---- *)

let assignment =
  lazy
    (Ldns.assign (Lazy.force deployment).Deployment.topo
       ~prefixes:(Lazy.force prefixes) ~rng:(Sm.create 31) Ldns.default_params)

let test_ldns_every_prefix_assigned () =
  let a = Lazy.force assignment in
  Array.iter
    (fun (p : Prefix.t) ->
      let r = Ldns.resolver_of a p in
      Alcotest.(check bool) "valid resolver id" true
        (r.Ldns.id >= 0 && r.Ldns.id < Array.length a.Ldns.resolvers))
    (Lazy.force prefixes)

let test_ldns_public_and_private_mix () =
  let a = Lazy.force assignment in
  let publics =
    Array.to_list (Lazy.force prefixes)
    |> List.filter (fun p -> (Ldns.resolver_of a p).Ldns.public)
  in
  let n = Array.length (Lazy.force prefixes) in
  Alcotest.(check bool) "some public users" true (List.length publics > 0);
  Alcotest.(check bool) "some in-AS users" true (List.length publics < n)

let test_ldns_in_as_resolver_at_home () =
  let t = (Lazy.force deployment).Deployment.topo in
  let a = Lazy.force assignment in
  Array.iter
    (fun (p : Prefix.t) ->
      let r = Ldns.resolver_of a p in
      if not r.Ldns.public then
        Alcotest.(check int) "resolver at AS home"
          (Asn.home (Topology.asn t p.Prefix.asid))
          r.Ldns.city)
    (Lazy.force prefixes)

let test_ldns_measurement_city () =
  let a = Lazy.force assignment in
  Array.iter
    (fun (p : Prefix.t) ->
      let city = Ldns.measurement_city a p in
      if a.Ldns.ecs.(p.Prefix.id) then
        Alcotest.(check int) "ecs uses client city" p.Prefix.city city
      else
        Alcotest.(check int) "non-ecs uses resolver city"
          (Ldns.resolver_of a p).Ldns.city city)
    (Lazy.force prefixes)

let test_ldns_public_pools_are_regional () =
  (* Public resolvers are anycast: a pool never mixes clients from
     different continents (finer pools = stabler predictions). *)
  let a = Lazy.force assignment in
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun (p : Prefix.t) ->
      let r = Ldns.resolver_of a p in
      if r.Ldns.public then begin
        let continent =
          Netsim_geo.World.cities.(p.Prefix.city).Netsim_geo.City.continent
        in
        match Hashtbl.find_opt tbl r.Ldns.id with
        | None -> Hashtbl.replace tbl r.Ldns.id continent
        | Some c ->
            Alcotest.(check bool) "pool is single-continent" true
              (c = continent)
      end)
    (Lazy.force prefixes)

let test_redirector_client_sample_trains () =
  let a = Lazy.force anycast in
  let assignment = Lazy.force assignment in
  let d = Lazy.force deployment in
  let cong = Congestion.create Params.default d.Deployment.topo ~seed:7 in
  let windows = Window.windows ~days:0.5 ~length_min:120. in
  let table =
    Redirector.train ~client_sample:1 a ~assignment
      ~prefixes:(Lazy.force prefixes) ~cong ~rng:(Sm.create 41) ~windows
      ~samples_per_window:2
  in
  let f = Redirector.redirected_fraction table in
  Alcotest.(check bool) "sparse training still bounded" true
    (f >= 0. && f <= 1.)

let test_redirector_margin_monotone () =
  (* A larger margin can only reduce (or keep) the redirected set. *)
  let a = Lazy.force anycast in
  let assignment = Lazy.force assignment in
  let d = Lazy.force deployment in
  let cong = Congestion.create Params.default d.Deployment.topo ~seed:7 in
  let windows = Window.windows ~days:0.5 ~length_min:120. in
  let frac margin =
    Redirector.redirected_fraction
      (Redirector.train ~margin a ~assignment ~prefixes:(Lazy.force prefixes)
         ~cong ~rng:(Sm.create 41) ~windows ~samples_per_window:2)
  in
  Alcotest.(check bool) "margin reduces redirection" true
    (frac 50. <= frac 0. +. 1e-9)

let test_ldns_clients_of_resolver_partition () =
  let a = Lazy.force assignment in
  let total =
    Array.fold_left
      (fun acc (r : Ldns.resolver) ->
        acc
        + List.length
            (Ldns.clients_of_resolver a (Lazy.force prefixes) r.Ldns.id))
      0 a.Ldns.resolvers
  in
  Alcotest.(check int) "partition" (Array.length (Lazy.force prefixes)) total

(* ---- Redirector ---- *)

let test_redirector_train_and_choices () =
  let a = Lazy.force anycast in
  let assignment = Lazy.force assignment in
  let d = Lazy.force deployment in
  let cong = Congestion.create Params.default d.Deployment.topo ~seed:7 in
  let windows = Window.windows ~days:0.5 ~length_min:120. in
  let table =
    Redirector.train a ~assignment ~prefixes:(Lazy.force prefixes) ~cong
      ~rng:(Sm.create 41) ~windows ~samples_per_window:2
  in
  let f = Redirector.redirected_fraction table in
  Alcotest.(check bool) "fraction in [0,1]" true (f >= 0. && f <= 1.);
  Alcotest.(check bool) "choices recorded" true (Redirector.choices table <> []);
  (* Every client's choice resolves to a servable flow. *)
  Array.iter
    (fun p ->
      let choice = Redirector.choice_for table assignment p in
      match Redirector.flow_for_choice a p choice with
      | Some _ -> ()
      | None ->
          (* Acceptable only if even anycast cannot reach this client. *)
          Alcotest.(check bool) "unreachable client" true
            (Anycast.anycast_flow a p = None))
    (Lazy.force prefixes)

let test_redirector_site_choices_point_at_sites () =
  let a = Lazy.force anycast in
  let assignment = Lazy.force assignment in
  let d = Lazy.force deployment in
  let cong = Congestion.create Params.default d.Deployment.topo ~seed:7 in
  let windows = Window.windows ~days:0.5 ~length_min:120. in
  let table =
    Redirector.train a ~assignment ~prefixes:(Lazy.force prefixes) ~cong
      ~rng:(Sm.create 41) ~windows ~samples_per_window:2
  in
  List.iter
    (fun (_, choice) ->
      match choice with
      | Redirector.Use_anycast -> ()
      | Redirector.Use_site s ->
          Alcotest.(check bool) "site exists" true
            (List.mem s (Anycast.sites a)))
    (Redirector.choices table)

let suite =
  [
    Alcotest.test_case "deploy adds provider" `Quick test_deploy_adds_provider_as;
    Alcotest.test_case "deploy transit+peers" `Quick test_deploy_has_transit_and_peers;
    Alcotest.test_case "transit at every pop" `Quick test_deploy_transit_at_every_pop;
    Alcotest.test_case "deploy invariants" `Quick test_deploy_invariants_hold;
    Alcotest.test_case "peer fraction zero" `Quick test_deploy_peer_fraction_zero;
    Alcotest.test_case "peer fraction monotone" `Quick test_deploy_peer_fraction_monotone;
    Alcotest.test_case "reject empty pops" `Quick test_deploy_rejects_empty_pops;
    Alcotest.test_case "nearest pop" `Quick test_nearest_pop;
    Alcotest.test_case "egress entries exist" `Quick test_egress_entries_exist;
    Alcotest.test_case "egress options bounded" `Quick test_egress_options_ranked_and_bounded;
    Alcotest.test_case "egress peer-first" `Quick test_egress_head_is_most_preferred;
    Alcotest.test_case "egress nearest pop" `Quick test_egress_serving_pop_is_nearest;
    Alcotest.test_case "egress flows end at client" `Quick test_egress_flows_end_at_client;
    Alcotest.test_case "egress kind classification" `Quick test_egress_route_kind_classification;
    Alcotest.test_case "controller measures routes" `Quick test_controller_measures_all_routes;
    Alcotest.test_case "controller improvement" `Quick test_controller_improvement_consistency;
    Alcotest.test_case "controller bounds" `Quick test_controller_bounds_bracket_point_estimate;
    Alcotest.test_case "controller single route" `Quick test_controller_single_route_entry_guarded;
    Alcotest.test_case "anycast sites" `Quick test_anycast_sites;
    Alcotest.test_case "anycast flows exist" `Quick test_anycast_flows_exist;
    Alcotest.test_case "anycast site = entry" `Quick test_anycast_site_is_entry_metro;
    Alcotest.test_case "unicast enters site" `Quick test_unicast_enters_requested_site;
    Alcotest.test_case "unicast unknown site" `Quick test_unicast_unknown_site_rejected;
    Alcotest.test_case "grooming withholds site" `Quick test_grooming_changes_catchment_config;
    Alcotest.test_case "ldns assigned" `Quick test_ldns_every_prefix_assigned;
    Alcotest.test_case "ldns public/private mix" `Quick test_ldns_public_and_private_mix;
    Alcotest.test_case "ldns in-AS at home" `Quick test_ldns_in_as_resolver_at_home;
    Alcotest.test_case "ldns measurement city" `Quick test_ldns_measurement_city;
    Alcotest.test_case "ldns partition" `Quick test_ldns_clients_of_resolver_partition;
    Alcotest.test_case "ldns regional pools" `Quick test_ldns_public_pools_are_regional;
    Alcotest.test_case "redirector client_sample" `Quick test_redirector_client_sample_trains;
    Alcotest.test_case "redirector margin monotone" `Quick test_redirector_margin_monotone;
    Alcotest.test_case "redirector train/choices" `Quick test_redirector_train_and_choices;
    Alcotest.test_case "redirector sites valid" `Quick test_redirector_site_choices_point_at_sites;
  ]
