(* Tests for the §4 / open-question extensions: link failures,
   goodput, availability, hybrid redirection, split TCP, site density
   and the ECS ablation. *)

module Sm = Netsim_prng.Splitmix
module Topology = Netsim_topo.Topology
module Relation = Netsim_topo.Relation
module Announce = Netsim_bgp.Announce
module Propagate = Netsim_bgp.Propagate
module Params = Netsim_latency.Params
module Congestion = Netsim_latency.Congestion
module Goodput = Netsim_latency.Goodput
module Rtt = Netsim_latency.Rtt
module Walk = Netsim_bgp.Walk
module S = Beatbgp.Scenario
open Fixture

let sizes = S.test_sizes

(* ---- Topology.remove_links ---- *)

let test_remove_links_drops_adjacency () =
  let t = topo () in
  let t' = Topology.remove_links t [ l_cp_eb_priv; l_cp_eb_pub ] in
  Alcotest.(check (list int)) "cp loses its peer" []
    (Topology.peers t' cp);
  Alcotest.(check int) "two fewer links" (Topology.link_count t - 2)
    (Topology.link_count t')

let test_remove_links_preserves_ids () =
  let t = topo () in
  let t' = Topology.remove_links t [ l_t1_peer ] in
  Array.iter
    (fun (l : Relation.link) ->
      let original = (Topology.links t).(l.Relation.id) in
      Alcotest.(check int) "id still resolves" l.Relation.id
        original.Relation.id)
    (Topology.links t')

let test_remove_links_unknown_ignored () =
  let t = topo () in
  let t' = Topology.remove_links t [ 999 ] in
  Alcotest.(check int) "nothing removed" (Topology.link_count t)
    (Topology.link_count t')

let test_remove_links_of_as () =
  let t = topo () in
  let t' = Topology.remove_links_of_as t cp in
  Alcotest.(check int) "cp isolated" 0 (List.length (Oracle.neighbors t' cp));
  let s = Propagate.run t' (Announce.default ~origin:cp) in
  Alcotest.(check bool) "cp unreachable" false (Propagate.reachable s eb)

let test_failure_reroutes () =
  (* Fail the private peer session: the eyeball reconverges to its
     public session; fail both: to the transit chain. *)
  let t = topo () in
  let t1 = Topology.remove_links t [ l_cp_eb_priv ] in
  let s1 = Propagate.run t1 (Announce.default ~origin:cp) in
  (match Propagate.best s1 eb with
  | Some r ->
      Alcotest.(check int) "fails over to public session" l_cp_eb_pub
        r.Netsim_bgp.Route.via_link.Relation.id
  | None -> Alcotest.fail "unreachable after single failure")

(* ---- Goodput ---- *)

let goodput_env () =
  let t = topo () in
  let s = Propagate.run t (Announce.default ~origin:cp) in
  let cong = Congestion.create Params.default t ~seed:4 in
  let walk =
    match Walk.of_source s ~src:st with
    | Some w -> w
    | None -> Alcotest.fail "no walk"
  in
  (cong, Rtt.make_flow ~access:(Congestion.Access 1)
           ~terminal:Netsim_latency.Propagation.At_entry walk)

let test_mathis_monotonic () =
  let g rtt loss = Goodput.mathis_mbps ~mss_bytes:1460 ~rtt_ms:rtt ~loss in
  Alcotest.(check bool) "lower rtt, more goodput" true (g 10. 1e-4 > g 50. 1e-4);
  Alcotest.(check bool) "lower loss, more goodput" true (g 20. 1e-5 > g 20. 1e-3)

let test_mathis_finite_on_clean_path () =
  let v = Goodput.mathis_mbps ~mss_bytes:1460 ~rtt_ms:10. ~loss:0. in
  Alcotest.(check bool) "finite" true (Float.is_finite v && v > 0.)

let test_link_loss_grows_with_util () =
  let cong, _ = goodput_env () in
  Congestion.set_offered_load cong ~link_id:0 ~gbps:30.;
  let low = Goodput.link_loss_rate cong ~link_id:0 ~time_min:0. in
  Congestion.set_offered_load cong ~link_id:0 ~gbps:96.;
  let high = Goodput.link_loss_rate cong ~link_id:0 ~time_min:0. in
  Alcotest.(check bool) "loss grows" true (high > low);
  Alcotest.(check bool) "loss is a probability" true (high < 1.)

let test_path_loss_compounds () =
  let cong, flow = goodput_env () in
  let p = Goodput.path_loss_rate cong flow.Rtt.walk ~time_min:0. in
  Alcotest.(check bool) "in (0,1)" true (p > 0. && p < 1.)

let test_flow_goodput_positive_and_capped () =
  let cong, flow = goodput_env () in
  let rng = Sm.create 5 in
  let v = Goodput.flow_goodput_mbps cong ~rng ~time_min:60. flow in
  Alcotest.(check bool) "positive" true (v > 0.);
  Alcotest.(check bool) "capped by the access rate" true
    (v <= Congestion.access_rate_mbps cong 1 +. 1e-9)

let test_access_rate_stable () =
  let cong, _ = goodput_env () in
  Alcotest.(check (float 1e-12)) "stable" (Congestion.access_rate_mbps cong 3)
    (Congestion.access_rate_mbps cong 3);
  Alcotest.(check bool) "positive" true (Congestion.access_rate_mbps cong 3 > 0.)

(* ---- Experiment pipelines at test scale ---- *)

let fb = lazy (S.facebook ~sizes ())
let ms = lazy (S.microsoft ~sizes ())
let gc = lazy (S.google ~sizes ~n_vantage:200 ())

let test_goodput_experiment () =
  let r = Beatbgp.Goodput_egress.run (Lazy.force fb) in
  Alcotest.(check bool) "ratios measured" true
    (r.Beatbgp.Goodput_egress.ratios <> []);
  List.iter
    (fun (ratio, w) ->
      Alcotest.(check bool) "ratio positive" true (ratio > 0.);
      Alcotest.(check bool) "weight positive" true (w > 0.))
    r.Beatbgp.Goodput_egress.ratios;
  let median = Beatbgp.Figure.stat r.Beatbgp.Goodput_egress.figure "median_ratio" in
  Alcotest.(check bool) "median ratio near 1" true (median >= 0.8 && median <= 1.5)

let test_availability_experiment () =
  let r = Beatbgp.Availability.run (Lazy.force ms) in
  Alcotest.(check bool) "failures simulated" true
    (r.Beatbgp.Availability.failures <> []);
  List.iter
    (fun (f : Beatbgp.Availability.site_failure) ->
      let in01 v = v >= 0. && v <= 1. in
      Alcotest.(check bool) "shares bounded" true
        (in01 f.Beatbgp.Availability.affected_share
        && in01 f.Beatbgp.Availability.stranded_share
        && in01 f.Beatbgp.Availability.dns_outage_share);
      Alcotest.(check bool) "outage = share * ttl" true
        (Float.abs
           (f.Beatbgp.Availability.dns_outage_client_seconds
           -. (f.Beatbgp.Availability.dns_outage_share *. 300.))
        < 1e-6))
    r.Beatbgp.Availability.failures

let test_availability_anycast_never_strands () =
  (* Rich connectivity: losing one site must not strand clients. *)
  let r = Beatbgp.Availability.run (Lazy.force ms) in
  List.iter
    (fun (f : Beatbgp.Availability.site_failure) ->
      Alcotest.(check bool) "stranded ~0" true
        (f.Beatbgp.Availability.stranded_share < 0.02))
    r.Beatbgp.Availability.failures

let test_hybrid_margin_monotone () =
  let r = Beatbgp.Hybrid.run (Lazy.force ms) in
  let points = r.Beatbgp.Hybrid.points in
  Alcotest.(check int) "five margins" 5 (List.length points);
  (* Redirected fraction and regressions shrink as margin grows. *)
  let rec pairwise = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "redirected non-increasing" true
          (b.Beatbgp.Hybrid.redirected_fraction
          <= a.Beatbgp.Hybrid.redirected_fraction +. 1e-9);
        pairwise rest
    | _ -> ()
  in
  pairwise points;
  match (List.nth_opt points 0, List.nth_opt points 4) with
  | Some agg, Some cons ->
      Alcotest.(check bool) "regressions shrink" true
        (cons.Beatbgp.Hybrid.frac_worse <= agg.Beatbgp.Hybrid.frac_worse +. 1e-9)
  | _ -> Alcotest.fail "missing points"

let test_split_tcp_experiment () =
  let r = Beatbgp.Split_tcp.run (Lazy.force gc) in
  Alcotest.(check bool) "points" true (r.Beatbgp.Split_tcp.points <> []);
  (* Splitting always helps when the edge is closer than the DC. *)
  Alcotest.(check bool) "split saves latency" true
    (r.Beatbgp.Split_tcp.median_saving_wan_ms > 0.);
  List.iter
    (fun (p : Beatbgp.Split_tcp.per_vp) ->
      Alcotest.(check bool) "all designs positive" true
        (p.Beatbgp.Split_tcp.direct_ms > 0.
        && p.Beatbgp.Split_tcp.split_wan_ms > 0.
        && p.Beatbgp.Split_tcp.split_public_ms > 0.);
      Alcotest.(check bool) "WAN backend no slower than public" true
        (p.Beatbgp.Split_tcp.split_wan_ms
        <= p.Beatbgp.Split_tcp.split_public_ms +. 1e-6))
    r.Beatbgp.Split_tcp.points

let test_site_density_monotone_tendency () =
  let r = Beatbgp.Site_density.run ~sizes ~site_counts:[ 6; 36 ] () in
  match r.Beatbgp.Site_density.points with
  | [ sparse; dense ] ->
      Alcotest.(check bool) "more sites, lower median RTT" true
        (dense.Beatbgp.Site_density.median_rtt_ms
        < sparse.Beatbgp.Site_density.median_rtt_ms);
      Alcotest.(check bool) "more sites, fewer mis-catches" true
        (dense.Beatbgp.Site_density.miscatch_share
        <= sparse.Beatbgp.Site_density.miscatch_share +. 0.05)
  | _ -> Alcotest.fail "expected two points"

let test_ecs_ablation_kills_regressions () =
  let r = Beatbgp.Ecs_ablation.run ~sizes ~adoptions:[ 0.001; 1.0 ] () in
  match r.Beatbgp.Ecs_ablation.points with
  | [ today; full ] ->
      Alcotest.(check bool) "full ECS reduces regressions" true
        (full.Beatbgp.Ecs_ablation.frac_worse
        <= today.Beatbgp.Ecs_ablation.frac_worse +. 1e-9)
  | _ -> Alcotest.fail "expected two points"

let test_peering_ablation_small () =
  let r =
    Beatbgp.Peering_ablation.run ~fractions:[ 1.0; 0.1 ] ~sizes ()
  in
  match r.Beatbgp.Peering_ablation.points with
  | [ full; starved ] ->
      Alcotest.(check (float 1e-9)) "fractions recorded" 1.0
        full.Beatbgp.Peering_ablation.peer_fraction;
      Alcotest.(check bool) "fewer peers at 10%" true
        (starved.Beatbgp.Peering_ablation.pni_count
        <= full.Beatbgp.Peering_ablation.pni_count);
      Alcotest.(check bool) "peer-route share drops" true
        (starved.Beatbgp.Peering_ablation.peer_route_share
        <= full.Beatbgp.Peering_ablation.peer_route_share +. 1e-9);
      Alcotest.(check bool) "latency does not improve" true
        (starved.Beatbgp.Peering_ablation.median_ms
        >= full.Beatbgp.Peering_ablation.median_ms -. 3.)
  | _ -> Alcotest.fail "expected two points"

let test_groom_predict () =
  let r = Beatbgp.Groom_predict.run ~max_actions:5 (Lazy.force ms) in
  Alcotest.(check bool) "actions evaluated" true
    (r.Beatbgp.Groom_predict.actions <> []);
  List.iter
    (fun (a : Beatbgp.Groom_predict.action_eval) ->
      Alcotest.(check bool) "affected weight bounded" true
        (a.Beatbgp.Groom_predict.affected_weight >= 0.
        && a.Beatbgp.Groom_predict.affected_weight <= 1.);
      if not (Float.is_nan a.Beatbgp.Groom_predict.predicted_correct) then
        Alcotest.(check bool) "accuracy bounded" true
          (a.Beatbgp.Groom_predict.predicted_correct >= 0.
          && a.Beatbgp.Groom_predict.predicted_correct <= 1.))
    r.Beatbgp.Groom_predict.actions

let test_grooming_small () =
  let r = Beatbgp.Grooming.run ~rounds:2 (Lazy.force ms) in
  Alcotest.(check int) "three rounds recorded" 3
    (List.length r.Beatbgp.Grooming.rounds);
  Alcotest.(check bool) "actions applied" true
    (r.Beatbgp.Grooming.total_actions > 0)

let test_robustness_small () =
  (* Two seeds at test scale: the harness machinery must aggregate
     claims correctly (actual pass rates are checked at full scale by
     the CLI / robustness command). *)
  let r = Beatbgp.Robustness.run ~seeds:[ 7; 8 ] ~sizes () in
  Alcotest.(check int) "two seeds" 2 (List.length r.Beatbgp.Robustness.seeds);
  Alcotest.(check bool) "claims aggregated" true
    (r.Beatbgp.Robustness.claims <> []);
  List.iter
    (fun (c : Beatbgp.Robustness.claim_summary) ->
      Alcotest.(check bool) "pass rate bounded" true
        (c.Beatbgp.Robustness.pass_rate >= 0.
        && c.Beatbgp.Robustness.pass_rate <= 1.);
      Alcotest.(check bool) "min <= mean <= max" true
        (c.Beatbgp.Robustness.min <= c.Beatbgp.Robustness.mean +. 1e-9
        && c.Beatbgp.Robustness.mean <= c.Beatbgp.Robustness.max +. 1e-9))
    r.Beatbgp.Robustness.claims

let suite =
  [
    Alcotest.test_case "robustness harness" `Slow test_robustness_small;
    Alcotest.test_case "remove_links adjacency" `Quick test_remove_links_drops_adjacency;
    Alcotest.test_case "remove_links preserves ids" `Quick test_remove_links_preserves_ids;
    Alcotest.test_case "remove_links unknown" `Quick test_remove_links_unknown_ignored;
    Alcotest.test_case "remove_links_of_as" `Quick test_remove_links_of_as;
    Alcotest.test_case "failure reroutes" `Quick test_failure_reroutes;
    Alcotest.test_case "mathis monotonic" `Quick test_mathis_monotonic;
    Alcotest.test_case "mathis finite" `Quick test_mathis_finite_on_clean_path;
    Alcotest.test_case "loss grows with util" `Quick test_link_loss_grows_with_util;
    Alcotest.test_case "path loss compounds" `Quick test_path_loss_compounds;
    Alcotest.test_case "flow goodput capped" `Quick test_flow_goodput_positive_and_capped;
    Alcotest.test_case "access rate stable" `Quick test_access_rate_stable;
    Alcotest.test_case "goodput experiment" `Slow test_goodput_experiment;
    Alcotest.test_case "availability experiment" `Slow test_availability_experiment;
    Alcotest.test_case "availability no stranding" `Slow test_availability_anycast_never_strands;
    Alcotest.test_case "hybrid margin monotone" `Slow test_hybrid_margin_monotone;
    Alcotest.test_case "split tcp" `Slow test_split_tcp_experiment;
    Alcotest.test_case "site density" `Slow test_site_density_monotone_tendency;
    Alcotest.test_case "ecs ablation" `Slow test_ecs_ablation_kills_regressions;
    Alcotest.test_case "peering ablation small" `Slow test_peering_ablation_small;
    Alcotest.test_case "grooming small" `Slow test_grooming_small;
    Alcotest.test_case "groom predict" `Slow test_groom_predict;
  ]
