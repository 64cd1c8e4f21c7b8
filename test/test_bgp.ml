(* BGP engine tests on the hand-built fixture (known-by-construction
   routes) plus valley-freeness properties on generated topologies. *)

module Sm = Netsim_prng.Splitmix
module Asn = Netsim_topo.Asn
module Relation = Netsim_topo.Relation
module Topology = Netsim_topo.Topology
module Generator = Netsim_topo.Generator
module Announce = Netsim_bgp.Announce
module Route = Netsim_bgp.Route
module Propagate = Netsim_bgp.Propagate
module Decision = Netsim_bgp.Decision
module Walk = Netsim_bgp.Walk
module Catchment = Netsim_bgp.Catchment
open Fixture

let state_to_cp () =
  let t = topo () in
  (t, Propagate.run t (Announce.default ~origin:cp))

(* ---- Announce ---- *)

let test_announce_default () =
  let t = topo () in
  let c = Announce.default ~origin:cp in
  let link = (Topology.links t).(l_cp_eb_priv) in
  let a = Announce.action_on c link in
  Alcotest.(check bool) "exports" true a.Announce.export;
  Alcotest.(check int) "no prepend" 0 a.Announce.prepend

let test_announce_non_origin_link () =
  let t = topo () in
  let c = Announce.default ~origin:cp in
  let link = (Topology.links t).(l_st_eb) in
  Alcotest.(check bool) "non-origin link never exports" false
    (Announce.action_on c link).Announce.export

let test_announce_only_at_metros () =
  let t = topo () in
  let c = Announce.only_at_metros ~origin:cp [ london ] in
  let links = Topology.links t in
  Alcotest.(check bool) "london session exports" true
    (Announce.action_on c links.(l_cp_t1a_lon)).Announce.export;
  Alcotest.(check bool) "ny session silent" false
    (Announce.action_on c links.(l_cp_t1a_ny)).Announce.export

let test_announce_prepend_at_metros () =
  let t = topo () in
  let c = Announce.prepend_at_metros (Announce.default ~origin:cp) [ chicago ] 3 in
  let links = Topology.links t in
  Alcotest.(check int) "chicago prepended" 3
    (Announce.action_on c links.(l_cp_eb_priv)).Announce.prepend;
  Alcotest.(check int) "ny untouched" 0
    (Announce.action_on c links.(l_cp_eb_pub)).Announce.prepend

let test_announce_withhold () =
  let t = topo () in
  let c = Announce.withhold_links (Announce.default ~origin:cp) [ l_cp_eb_priv ] in
  let links = Topology.links t in
  Alcotest.(check bool) "withheld" false
    (Announce.action_on c links.(l_cp_eb_priv)).Announce.export;
  Alcotest.(check bool) "others still export" true
    (Announce.action_on c links.(l_cp_eb_pub)).Announce.export

(* ---- Propagate: selection on the fixture ---- *)

let best_exn state x =
  match Propagate.best state x with
  | Some r -> r
  | None -> Alcotest.fail (Printf.sprintf "AS%d has no route" x)

let test_t1a_customer_route () =
  let _, s = state_to_cp () in
  let r = best_exn s t1a in
  Alcotest.(check bool) "customer class" true (r.Route.klass = Route.Customer);
  Alcotest.(check int) "len 1" 1 r.Route.path_len;
  Alcotest.(check (list int)) "path" [ cp ] r.Route.as_path

let test_t1b_peer_route () =
  let _, s = state_to_cp () in
  let r = best_exn s t1b in
  Alcotest.(check bool) "peer class" true (r.Route.klass = Route.Peer);
  Alcotest.(check (list int)) "path via t1a" [ t1a; cp ] r.Route.as_path

let test_tr_provider_route () =
  let _, s = state_to_cp () in
  let r = best_exn s tr in
  Alcotest.(check bool) "provider class" true (r.Route.klass = Route.Provider);
  (* Shorter provider route [t1a; cp] beats [t1b; t1a; cp]. *)
  Alcotest.(check (list int)) "shortest provider path" [ t1a; cp ]
    r.Route.as_path

let test_eb_prefers_peer () =
  let _, s = state_to_cp () in
  let r = best_exn s eb in
  Alcotest.(check bool) "peer class" true (r.Route.klass = Route.Peer);
  Alcotest.(check (list int)) "direct" [ cp ] r.Route.as_path;
  (* Tie between the private (link 7) and public (link 8) sessions
     breaks on the lower link id. *)
  Alcotest.(check int) "deterministic session" l_cp_eb_priv
    r.Route.via_link.Relation.id

let test_st_provider_chain () =
  let _, s = state_to_cp () in
  let r = best_exn s st in
  Alcotest.(check (list int)) "chain through eyeball" [ eb; cp ] r.Route.as_path;
  Alcotest.(check bool) "provider class" true (r.Route.klass = Route.Provider)

let test_origin_has_no_route () =
  let _, s = state_to_cp () in
  Alcotest.(check bool) "origin best = None" true (Propagate.best s cp = None);
  Alcotest.(check bool) "origin reachable" true (Propagate.reachable s cp)

let test_as_path_matches_best () =
  let _, s = state_to_cp () in
  for x = 0 to 4 do
    let r = best_exn s x in
    Alcotest.(check (list int)) "as_path consistent" r.Route.as_path
      (Propagate.as_path s x)
  done

let test_all_reachable () =
  let t, s = state_to_cp () in
  for x = 0 to Topology.as_count t - 1 do
    Alcotest.(check bool) "reachable" true (Propagate.reachable s x)
  done

(* ---- Propagate: export rules via received ---- *)

let received_paths s x =
  List.map (fun (r : Route.t) -> r.Route.as_path) (Propagate.received s x)

let test_valley_free_export_to_provider () =
  (* EB's best is a peer route; it must NOT be exported to its
     provider TR.  TR's Adj-RIB-In has only the two Tier-1 routes. *)
  let _, s = state_to_cp () in
  let got = List.sort compare (received_paths s tr) in
  Alcotest.(check (list (list int))) "only tier1 announcements"
    [ [ t1a; cp ]; [ t1b; t1a; cp ] ]
    got

let test_peer_learned_not_exported_to_peer () =
  (* T1b's route is peer-learned from T1a; T1b must not export it back
     to its peer, and T1a must not receive its own path. *)
  let _, s = state_to_cp () in
  let got = received_paths s t1a in
  Alcotest.(check bool) "no looped announcement" true
    (not (List.exists (fun p -> List.mem t1a p) got))

let test_provider_exports_everything_to_customer () =
  (* ST is EB's customer: it receives EB's peer-learned best. *)
  let _, s = state_to_cp () in
  Alcotest.(check (list (list int))) "stub hears the peer route"
    [ [ eb; cp ] ]
    (received_paths s st)

let test_received_at_origin_empty () =
  let _, s = state_to_cp () in
  Alcotest.(check int) "origin receives nothing" 0
    (List.length (Propagate.received s cp))

let test_received_direct_sessions () =
  (* EB hears the prefix on both of its sessions with CP. *)
  let _, s = state_to_cp () in
  let direct =
    List.filter
      (fun (r : Route.t) -> r.Route.next_hop = cp)
      (Propagate.received s eb)
  in
  Alcotest.(check int) "two direct sessions" 2 (List.length direct)

let test_received_at_metro_filters () =
  let _, s = state_to_cp () in
  let at_chicago = Propagate.received_at_metro s eb ~metro:chicago in
  List.iter
    (fun (r : Route.t) ->
      Alcotest.(check int) "session at chicago" chicago
        r.Route.via_link.Relation.metro)
    at_chicago;
  Alcotest.(check bool) "nonempty" true (at_chicago <> [])

(* ---- Prepending and withholding ---- *)

let test_prepend_shifts_selection () =
  (* Prepending on the private session makes the public session the
     shorter announcement at EB. *)
  let t = topo () in
  let config =
    Announce.with_overrides (Announce.default ~origin:cp) (fun link ->
        if link.Relation.id = l_cp_eb_priv then
          Some { Announce.export = true; prepend = 2; no_export = false }
        else None)
  in
  let s = Propagate.run t config in
  let r = best_exn s eb in
  Alcotest.(check int) "public session now best" l_cp_eb_pub
    r.Route.via_link.Relation.id;
  Alcotest.(check int) "len 1 unprepended" 1 r.Route.path_len

let test_prepend_does_not_flip_class () =
  (* Even a heavy prepend cannot make EB prefer its provider route:
     local-pref compares class first. *)
  let t = topo () in
  let config =
    Announce.with_overrides (Announce.default ~origin:cp) (fun link ->
        if link.Relation.id = l_cp_eb_priv || link.Relation.id = l_cp_eb_pub
        then Some { Announce.export = true; prepend = 10; no_export = false }
        else None)
  in
  let s = Propagate.run t config in
  Alcotest.(check bool) "still peer class" true
    ((best_exn s eb).Route.klass = Route.Peer)

let test_withhold_both_peer_sessions () =
  let t = topo () in
  let config =
    Announce.withhold_links (Announce.default ~origin:cp)
      [ l_cp_eb_priv; l_cp_eb_pub ]
  in
  let s = Propagate.run t config in
  let r = best_exn s eb in
  Alcotest.(check bool) "falls back to provider" true
    (r.Route.klass = Route.Provider);
  Alcotest.(check (list int)) "via transit chain" [ tr; t1a; cp ]
    r.Route.as_path

let test_unicast_site_announcement () =
  (* Prefix announced only at London: everyone still reaches it, via
     T1a's London session. *)
  let t = topo () in
  let s = Propagate.run t (Announce.only_at_metros ~origin:cp [ london ]) in
  for x = 0 to 4 do
    Alcotest.(check bool) "reachable via london" true (Propagate.reachable s x)
  done;
  let r = best_exn s eb in
  Alcotest.(check bool) "eyeball uses provider chain" true
    (r.Route.klass = Route.Provider)

let test_withhold_all_disconnects () =
  let t = topo () in
  let config =
    Announce.withhold_links (Announce.default ~origin:cp)
      [ l_cp_t1a_ny; l_cp_t1a_lon; l_cp_eb_priv; l_cp_eb_pub ]
  in
  let s = Propagate.run t config in
  Alcotest.(check bool) "nobody reaches the prefix" false
    (Propagate.reachable s st)

(* ---- NO_EXPORT community ---- *)

let no_export_on ids =
  Announce.with_overrides (Announce.default ~origin:cp) (fun link ->
      if List.mem link.Relation.id ids then
        Some { Announce.export = true; prepend = 0; no_export = true }
      else None)

let test_no_export_receiver_still_uses_route () =
  let t = topo () in
  let s = Propagate.run t (no_export_on [ l_cp_eb_priv; l_cp_eb_pub ]) in
  let r = best_exn s eb in
  Alcotest.(check bool) "eyeball keeps the peer route" true
    (r.Route.klass = Route.Peer)

let test_no_export_not_advertised_to_customer () =
  (* EB's peer routes are NO_EXPORT: its customer ST must fall back to
     whatever else it can hear — here, nothing from EB's peer route,
     so it still reaches CP via EB's provider chain announcement... in
     this fixture EB is ST's only upstream, so ST hears EB's selected
     route only if exportable. *)
  let t = topo () in
  let s = Propagate.run t (no_export_on [ l_cp_eb_priv; l_cp_eb_pub ]) in
  let heard_from_eb =
    List.filter
      (fun (r : Route.t) -> r.Route.next_hop = eb)
      (Propagate.received s st)
  in
  Alcotest.(check int) "EB advertises nothing NO_EXPORT" 0
    (List.length heard_from_eb)

let test_no_export_on_transit_scopes_propagation () =
  (* NO_EXPORT on the T1a sessions: T1a itself still routes to CP, but
     neither T1b (peer) nor TR (customer) hears the route from it.
     With the peer sessions also withheld, most of the world goes
     dark. *)
  let t = topo () in
  let config =
    Announce.with_overrides (Announce.default ~origin:cp) (fun link ->
        if link.Relation.id = l_cp_t1a_ny || link.Relation.id = l_cp_t1a_lon
        then Some { Announce.export = true; prepend = 0; no_export = true }
        else if link.Relation.id = l_cp_eb_priv || link.Relation.id = l_cp_eb_pub
        then Some { Announce.export = false; prepend = 0; no_export = false }
        else None)
  in
  let s = Propagate.run t config in
  Alcotest.(check bool) "T1a itself still routes" true (Propagate.reachable s t1a);
  Alcotest.(check bool) "T1b no longer hears it" false (Propagate.reachable s t1b);
  Alcotest.(check bool) "TR no longer hears it" false (Propagate.reachable s tr)

let test_no_export_helper () =
  let t = topo () in
  let c =
    Announce.no_export_at_metros (Announce.default ~origin:cp) [ chicago ]
  in
  let links = Topology.links t in
  Alcotest.(check bool) "chicago tagged" true
    (Announce.action_on c links.(l_cp_eb_priv)).Announce.no_export;
  Alcotest.(check bool) "ny untouched" false
    (Announce.action_on c links.(l_cp_eb_pub)).Announce.no_export

(* ---- Decision ---- *)

let test_decision_content_policy_order () =
  let _, s = state_to_cp () in
  (* Reverse direction: routes toward a client (EB) at the content
     provider. *)
  let s_client = Propagate.run (topo ()) (Announce.default ~origin:eb) in
  let ranked =
    Decision.sort Decision.content_provider (Propagate.received s_client cp)
  in
  (match ranked with
  | first :: second :: _ ->
      Alcotest.(check bool) "private peer first" true
        (first.Route.via_link.Relation.kind = Relation.Peer_private);
      Alcotest.(check bool) "public peer second" true
        (second.Route.via_link.Relation.kind = Relation.Peer_public)
  | _ -> Alcotest.fail "expected at least two routes");
  ignore s

let test_decision_k_best () =
  let s_client = Propagate.run (topo ()) (Announce.default ~origin:eb) in
  let received = Propagate.received s_client cp in
  let k2 = Decision.k_best Decision.content_provider 2 received in
  Alcotest.(check int) "k bounded" 2 (List.length k2);
  let all = Decision.k_best Decision.content_provider 100 received in
  Alcotest.(check int) "k clamps to available" (List.length received)
    (List.length all)

let test_decision_gao_rexford_ranks () =
  let mk klass kind =
    {
      Route.dest = 0;
      klass;
      next_hop = 1;
      via_link =
        { Relation.id = 0; a = 0; b = 1; kind; metro = 0; capacity_gbps = 1. };
      path_len = 5;
      as_path = [];
    }
  in
  let cust = mk Route.Customer Relation.C2p in
  let peer = mk Route.Peer Relation.Peer_private in
  let prov = mk Route.Provider Relation.C2p in
  let sorted = Decision.sort Decision.gao_rexford [ prov; peer; cust ] in
  Alcotest.(check bool) "customer first" true
    (match sorted with r :: _ -> r.Route.klass = Route.Customer | [] -> false);
  Alcotest.(check bool) "provider last" true
    (match List.rev sorted with
    | r :: _ -> r.Route.klass = Route.Provider
    | [] -> false)

let test_decision_shorter_path_wins () =
  let mk len id =
    {
      Route.dest = 0;
      klass = Route.Peer;
      next_hop = id;
      via_link =
        { Relation.id = id; a = 0; b = id; kind = Relation.Peer_private;
          metro = 0; capacity_gbps = 1. };
      path_len = len;
      as_path = [];
    }
  in
  match Decision.best Decision.gao_rexford [ mk 5 1; mk 2 2; mk 3 3 ] with
  | Some r -> Alcotest.(check int) "len 2 wins" 2 r.Route.path_len
  | None -> Alcotest.fail "no best"

(* ---- Walk ---- *)

let test_walk_from_stub () =
  let _, s = state_to_cp () in
  match Walk.of_source s ~src:st with
  | None -> Alcotest.fail "no walk"
  | Some w ->
      Alcotest.(check (list int)) "as path" [ st; eb ] (Walk.as_path w);
      Alcotest.(check int) "enters at chicago (private peer)" chicago
        (Walk.entry_metro w)

let test_walk_hot_potato_prefers_near_exit () =
  (* From T1b the walk reaches CP via T1a; T1a's sessions to CP are at
     NY and London and the flow is at NY, so it must exit at NY. *)
  let _, s = state_to_cp () in
  match Walk.of_source s ~src:t1b with
  | None -> Alcotest.fail "no walk"
  | Some w ->
      Alcotest.(check int) "entry at NY" ny (Walk.entry_metro w);
      Alcotest.(check (list int)) "path" [ t1b; t1a ] (Walk.as_path w)

let test_walk_respects_withheld_final_links () =
  (* Announce only at London: the final hop must use the London
     session even though NY is closer. *)
  let t = topo () in
  let s = Propagate.run t (Announce.only_at_metros ~origin:cp [ london ]) in
  match Walk.of_source s ~src:t1b with
  | None -> Alcotest.fail "no walk"
  | Some w -> Alcotest.(check int) "entry at london" london (Walk.entry_metro w)

let test_walk_prefers_less_prepended_final_link () =
  (* NY prepended, London clean: BGP picks the shorter announcement
     even though NY is nearer. *)
  let t = topo () in
  let config =
    Announce.with_overrides (Announce.default ~origin:cp) (fun link ->
        if link.Relation.id = l_cp_t1a_ny then
          Some { Announce.export = true; prepend = 4; no_export = false }
        else None)
  in
  let s = Propagate.run t config in
  match Walk.of_source s ~src:tr with
  | None -> Alcotest.fail "no walk"
  | Some w -> Alcotest.(check int) "entry at london" london (Walk.entry_metro w)

let test_walk_from_metro () =
  let _, s = state_to_cp () in
  match Walk.from_metro s ~src:eb ~start_metro:ny with
  | None -> Alcotest.fail "no walk"
  | Some w -> (
      match w.Walk.hops with
      | [ hop ] ->
          Alcotest.(check int) "ingress at NY" ny hop.Walk.ingress
      | _ -> Alcotest.fail "expected single hop")

let test_walk_of_route_pins_first_hop () =
  (* Egress from CP toward EB pinned to the transit announcement. *)
  let t = topo () in
  let s = Propagate.run t (Announce.default ~origin:eb) in
  let transit_route =
    List.find
      (fun (r : Route.t) -> r.Route.next_hop = t1a)
      (Propagate.received s cp)
  in
  match Walk.of_route s ~src:cp ~route:transit_route with
  | None -> Alcotest.fail "no walk"
  | Some w ->
      Alcotest.(check (list int)) "path via transit" [ cp; t1a; tr ]
        (Walk.as_path w)

let test_walk_source_is_origin_rejected () =
  let _, s = state_to_cp () in
  Alcotest.check_raises "origin as source"
    (Invalid_argument "Walk.from_metro: source is the origin") (fun () ->
      ignore (Walk.from_metro s ~src:cp ~start_metro:ny))

(* ---- Catchment ---- *)

let test_catchment_basic () =
  let _, s = state_to_cp () in
  let c = Catchment.compute s in
  Alcotest.(check (option int)) "stub lands at chicago" (Some chicago)
    (Catchment.site_of c st);
  Alcotest.(check (option int)) "t1b lands at NY" (Some ny)
    (Catchment.site_of c t1b);
  Alcotest.(check bool) "full coverage" true (Catchment.coverage c >= 1.)

let test_catchment_clients_of_site () =
  let _, s = state_to_cp () in
  let c = Catchment.compute s in
  let at_chicago = Catchment.clients_of_site c chicago in
  Alcotest.(check bool) "stub and eyeball at chicago" true
    (List.mem st at_chicago && List.mem eb at_chicago)

let test_catchment_sites () =
  let _, s = state_to_cp () in
  let c = Catchment.compute s in
  Alcotest.(check (list int)) "two active sites"
    (List.sort compare [ ny; chicago ])
    (List.sort compare (Catchment.sites c))

(* ---- Metrics ---- *)

let test_metrics_fixture () =
  let t = topo () in
  let m = Netsim_bgp.Metrics.compute ~rng:(Sm.create 1) t in
  Alcotest.(check int) "as count" 6 m.Netsim_bgp.Metrics.as_count;
  Alcotest.(check int) "link count" 9 m.Netsim_bgp.Metrics.link_count;
  Alcotest.(check bool) "mean degree = 2E/N" true
    (Float.abs (m.Netsim_bgp.Metrics.mean_degree -. (18. /. 6.)) < 1e-9);
  Alcotest.(check bool) "paths exist" true
    (m.Netsim_bgp.Metrics.mean_path_length >= 1.)

let test_customer_cone () =
  let t = topo () in
  (* T1a's cone: itself, TR, EB, ST, CP = 5. *)
  Alcotest.(check int) "t1a cone" 5 (Netsim_bgp.Metrics.customer_cone t t1a);
  Alcotest.(check int) "eb cone" 2 (Netsim_bgp.Metrics.customer_cone t eb);
  Alcotest.(check int) "stub cone" 1 (Netsim_bgp.Metrics.customer_cone t st)

let test_degree_histogram () =
  let t = topo () in
  let hist = Netsim_bgp.Metrics.degree_histogram t in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 hist in
  Alcotest.(check int) "covers all ASes" 6 total;
  let rec ascending = function
    | (a, _) :: ((b, _) :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by degree" true (ascending hist)

let test_metrics_generated_plausible () =
  let t = Generator.generate Generator.small_params in
  let m = Netsim_bgp.Metrics.compute ~rng:(Sm.create 2) t in
  Alcotest.(check bool) "path length 2-7" true
    (m.Netsim_bgp.Metrics.mean_path_length > 1.5
    && m.Netsim_bgp.Metrics.mean_path_length < 7.);
  Alcotest.(check bool) "peering share sane" true
    (m.Netsim_bgp.Metrics.peering_share > 0.05
    && m.Netsim_bgp.Metrics.peering_share < 0.9);
  Alcotest.(check bool) "largest cone most of the Internet" true
    (m.Netsim_bgp.Metrics.largest_cone > Topology.as_count t / 3)

(* ---- Show ---- *)

let test_show_route_line () =
  let t, s = state_to_cp () in
  match Propagate.best s st with
  | None -> Alcotest.fail "no route"
  | Some r ->
      let line = Netsim_bgp.Show.route t r in
      Alcotest.(check bool) "mentions class" true
        (Test_util.contains line "provider");
      Alcotest.(check bool) "mentions path names" true
        (Test_util.contains line "CP")

let test_show_rib_marks_best () =
  let t, s = state_to_cp () in
  let out = Netsim_bgp.Show.rib t s eb in
  Alcotest.(check bool) "best marked with >" true
    (Test_util.contains out "> ");
  Alcotest.(check bool) "shows receiver name" true
    (Test_util.contains out "EB")

let test_show_rib_empty () =
  let t, s = state_to_cp () in
  let out = Netsim_bgp.Show.rib t s cp in
  Alcotest.(check bool) "origin has empty rib" true
    (Test_util.contains out "(no routes)")

let test_show_walk () =
  let t, s = state_to_cp () in
  match Walk.of_source s ~src:st with
  | None -> Alcotest.fail "no walk"
  | Some w ->
      let out = Netsim_bgp.Show.walk t w in
      Alcotest.(check bool) "mentions entry" true
        (Test_util.contains out "enters CP");
      Alcotest.(check bool) "mentions metros" true
        (Test_util.contains out "Chicago")

(* ---- Valley-freeness property on generated topologies ---- *)

let valley_free topo path =
  (* A valid path, read source -> origin, must be a sequence of
     customer->provider steps, at most one peer step, then
     provider->customer steps. *)
  let rel a b =
    match Topology.links_between topo a b with
    | [] -> None
    | l :: _ -> Some (Relation.rel_of l a)
  in
  let rec go phase = function
    | a :: (b :: _ as rest) -> (
        match rel a b with
        | None -> false
        | Some r -> (
            match (phase, r) with
            | `Up, Relation.To_provider -> go `Up rest
            | `Up, (Relation.Priv_peer | Relation.Pub_peer) -> go `Down rest
            | `Up, Relation.To_customer -> go `Down rest
            | `Down, Relation.To_customer -> go `Down rest
            | `Down, (Relation.To_provider | Relation.Priv_peer | Relation.Pub_peer)
              ->
                false))
    | [ _ ] | [] -> true
  in
  go `Up path

let test_generated_paths_valley_free () =
  let t = Generator.generate Generator.small_params in
  let stubs = Topology.by_klass t Asn.Stub in
  let dests = List.filteri (fun i _ -> i < 10) stubs in
  List.iter
    (fun dest ->
      let s = Propagate.run t (Announce.default ~origin:dest) in
      for x = 0 to Topology.as_count t - 1 do
        if x <> dest then begin
          match Propagate.as_path s x with
          | [] -> Alcotest.fail (Printf.sprintf "AS%d unreachable" x)
          | path ->
              Alcotest.(check bool) "valley-free" true (valley_free t (x :: path))
        end
      done)
    dests

let test_generated_paths_loop_free () =
  let t = Generator.generate Generator.small_params in
  let dest = List.hd (Topology.by_klass t Asn.Eyeball) in
  let s = Propagate.run t (Announce.default ~origin:dest) in
  for x = 0 to Topology.as_count t - 1 do
    if x <> dest then begin
      let path = x :: Propagate.as_path s x in
      let sorted = List.sort_uniq compare path in
      Alcotest.(check int) "no repeated AS" (List.length path)
        (List.length sorted)
    end
  done

let test_received_routes_are_exportable () =
  (* Every announcement an AS receives from a non-customer must be a
     customer-learned route of the sender. *)
  let t = Generator.generate Generator.small_params in
  let dest = List.hd (Topology.by_klass t Asn.Stub) in
  let s = Propagate.run t (Announce.default ~origin:dest) in
  for x = 0 to Topology.as_count t - 1 do
    if x <> dest then
      List.iter
        (fun (r : Route.t) ->
          if r.Route.next_hop <> dest then begin
            let sender_klass = Propagate.selected_class s r.Route.next_hop in
            let x_is_customer =
              Relation.rel_of r.Route.via_link x = Relation.To_provider
            in
            if not x_is_customer then
              Alcotest.(check (option (of_pp (fun fmt k ->
                Format.pp_print_string fmt (Route.klass_to_string k)))))
                "sender exported a customer route" (Some Route.Customer)
                sender_klass
          end)
        (Propagate.received s x)
  done

(* ---- RIB table validation ---- *)

(* The packed entry layout of [Propagate.rib_arrays]. *)
let pack ~len ~parent ~link = (len lsl 42) lor (parent lsl 22) lor (link lsl 1)

let rejects f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* AS 0 is a customer of AS 1; ASes 1 and 2 are each other's customer
   over two links, so a customer-class cycle between them is
   relation-consistent and only the path lengths can expose it. *)
let test_of_rib_arrays_rejects_cycle () =
  let ases = Array.init 3 (fun i -> mk_as i Asn.Transit "X" [| ny |]) in
  let topo =
    Topology.make ases
      [
        mk_link 0 0 1 Relation.C2p ny;
        mk_link 1 1 2 Relation.C2p ny;
        mk_link 2 2 1 Relation.C2p ny;
      ]
  in
  let config = Announce.default ~origin:0 in
  let load cust =
    Propagate.of_rib_arrays ~topo ~config ~cust ~peer:(Array.make 3 (-1))
      ~prov:(Array.make 3 (-1))
  in
  let valid =
    load [| -1; pack ~len:1 ~parent:0 ~link:0; pack ~len:2 ~parent:1 ~link:1 |]
  in
  Alcotest.(check (list int)) "valid table loads" [ 1; 0 ]
    (Propagate.as_path valid 2);
  Alcotest.(check bool) "two-AS cycle rejected" true
    (rejects (fun () ->
         load
           [| -1; pack ~len:2 ~parent:2 ~link:2; pack ~len:2 ~parent:1 ~link:1 |]))

let test_of_rib_arrays_rejects_foreign_link () =
  let t, s = state_to_cp () in
  let cust, peer, prov = Propagate.rib_arrays s in
  let config = Announce.default ~origin:cp in
  let load prov = Propagate.of_rib_arrays ~topo:t ~config ~cust ~peer ~prov in
  ignore (load prov);
  (* ST learns CP from its provider EB; l_eb_tr exists but does not
     join ST to EB. *)
  let e = prov.(st) in
  Alcotest.(check bool) "ST has a provider route via EB" true
    (e >= 0 && (e lsr 22) land 0xF_FFFF = eb);
  let bad = Array.copy prov in
  bad.(st) <- pack ~len:(e lsr 42) ~parent:eb ~link:l_eb_tr;
  Alcotest.(check bool) "link not joining the AS to its parent rejected" true
    (rejects (fun () -> load bad));
  (* TR's provider route is relation-checked: l_eb_tr joins TR and EB,
     but EB is TR's customer, not its provider. *)
  let bad = Array.copy prov in
  bad.(tr) <- pack ~len:3 ~parent:eb ~link:l_eb_tr;
  Alcotest.(check bool) "wrong relation rejected" true
    (rejects (fun () -> load bad))

let suite =
  [
    Alcotest.test_case "announce default" `Quick test_announce_default;
    Alcotest.test_case "announce non-origin" `Quick test_announce_non_origin_link;
    Alcotest.test_case "announce only_at_metros" `Quick test_announce_only_at_metros;
    Alcotest.test_case "announce prepend" `Quick test_announce_prepend_at_metros;
    Alcotest.test_case "announce withhold" `Quick test_announce_withhold;
    Alcotest.test_case "t1a customer route" `Quick test_t1a_customer_route;
    Alcotest.test_case "t1b peer route" `Quick test_t1b_peer_route;
    Alcotest.test_case "tr provider route" `Quick test_tr_provider_route;
    Alcotest.test_case "eb prefers peer" `Quick test_eb_prefers_peer;
    Alcotest.test_case "stub provider chain" `Quick test_st_provider_chain;
    Alcotest.test_case "origin has no route" `Quick test_origin_has_no_route;
    Alcotest.test_case "as_path consistent" `Quick test_as_path_matches_best;
    Alcotest.test_case "all reachable" `Quick test_all_reachable;
    Alcotest.test_case "no peer export to provider" `Quick test_valley_free_export_to_provider;
    Alcotest.test_case "no loop announcements" `Quick test_peer_learned_not_exported_to_peer;
    Alcotest.test_case "full export to customer" `Quick test_provider_exports_everything_to_customer;
    Alcotest.test_case "origin receives nothing" `Quick test_received_at_origin_empty;
    Alcotest.test_case "direct sessions" `Quick test_received_direct_sessions;
    Alcotest.test_case "received_at_metro" `Quick test_received_at_metro_filters;
    Alcotest.test_case "prepend shifts selection" `Quick test_prepend_shifts_selection;
    Alcotest.test_case "prepend cannot flip class" `Quick test_prepend_does_not_flip_class;
    Alcotest.test_case "withhold falls back" `Quick test_withhold_both_peer_sessions;
    Alcotest.test_case "unicast site reachable" `Quick test_unicast_site_announcement;
    Alcotest.test_case "withhold all disconnects" `Quick test_withhold_all_disconnects;
    Alcotest.test_case "no_export still usable" `Quick test_no_export_receiver_still_uses_route;
    Alcotest.test_case "no_export not re-advertised" `Quick test_no_export_not_advertised_to_customer;
    Alcotest.test_case "no_export scopes transit" `Quick test_no_export_on_transit_scopes_propagation;
    Alcotest.test_case "no_export helper" `Quick test_no_export_helper;
    Alcotest.test_case "content policy order" `Quick test_decision_content_policy_order;
    Alcotest.test_case "k_best" `Quick test_decision_k_best;
    Alcotest.test_case "gao-rexford ranks" `Quick test_decision_gao_rexford_ranks;
    Alcotest.test_case "shorter path wins" `Quick test_decision_shorter_path_wins;
    Alcotest.test_case "walk from stub" `Quick test_walk_from_stub;
    Alcotest.test_case "walk hot potato" `Quick test_walk_hot_potato_prefers_near_exit;
    Alcotest.test_case "walk withheld final links" `Quick test_walk_respects_withheld_final_links;
    Alcotest.test_case "walk prepended final links" `Quick test_walk_prefers_less_prepended_final_link;
    Alcotest.test_case "walk from metro" `Quick test_walk_from_metro;
    Alcotest.test_case "walk of_route pins hop" `Quick test_walk_of_route_pins_first_hop;
    Alcotest.test_case "walk origin rejected" `Quick test_walk_source_is_origin_rejected;
    Alcotest.test_case "catchment basic" `Quick test_catchment_basic;
    Alcotest.test_case "catchment clients_of_site" `Quick test_catchment_clients_of_site;
    Alcotest.test_case "catchment sites" `Quick test_catchment_sites;
    Alcotest.test_case "metrics fixture" `Quick test_metrics_fixture;
    Alcotest.test_case "customer cone" `Quick test_customer_cone;
    Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
    Alcotest.test_case "metrics plausible" `Quick test_metrics_generated_plausible;
    Alcotest.test_case "show route line" `Quick test_show_route_line;
    Alcotest.test_case "show rib best mark" `Quick test_show_rib_marks_best;
    Alcotest.test_case "show rib empty" `Quick test_show_rib_empty;
    Alcotest.test_case "show walk" `Quick test_show_walk;
    Alcotest.test_case "generated valley-free" `Slow test_generated_paths_valley_free;
    Alcotest.test_case "generated loop-free" `Quick test_generated_paths_loop_free;
    Alcotest.test_case "received exportable" `Quick test_received_routes_are_exportable;
    Alcotest.test_case "of_rib_arrays rejects a cycle" `Quick
      test_of_rib_arrays_rejects_cycle;
    Alcotest.test_case "of_rib_arrays rejects a foreign link" `Quick
      test_of_rib_arrays_rejects_foreign_link;
  ]
