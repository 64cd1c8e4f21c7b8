(* Tests for the latency model: propagation arithmetic on the fixture,
   congestion determinism/shape, RTT sampling. *)

module Sm = Netsim_prng.Splitmix
module Relation = Netsim_topo.Relation
module Announce = Netsim_bgp.Announce
module Propagate = Netsim_bgp.Propagate
module Walk = Netsim_bgp.Walk
module Params = Netsim_latency.Params
module Propagation = Netsim_latency.Propagation
module Congestion = Netsim_latency.Congestion
module Rtt = Netsim_latency.Rtt
module World = Netsim_geo.World
module City = Netsim_geo.City
open Fixture

let walk_exn s src =
  match Walk.of_source s ~src with
  | Some w -> w
  | None -> Alcotest.fail "expected a walk"

let state () =
  let t = topo () in
  (t, Propagate.run t (Announce.default ~origin:cp))

(* ---- Propagation ---- *)

let test_inflation_by_class () =
  let p = Params.default in
  Alcotest.(check bool) "cloud best engineered" true
    (Propagation.inflation p Netsim_topo.Asn.Cloud
    < Propagation.inflation p Netsim_topo.Asn.Tier1);
  Alcotest.(check bool) "stub worst" true
    (Propagation.inflation p Netsim_topo.Asn.Stub
    > Propagation.inflation p Netsim_topo.Asn.Eyeball)

let test_intra_as_zero_same_metro () =
  let t, _ = state () in
  Alcotest.(check (float 1e-9)) "same metro no carry" 0.
    (Propagation.intra_as_ms Params.default t ~asid:t1a ~from_metro:ny
       ~to_metro:ny)

let test_intra_as_inflated () =
  let t, _ = state () in
  let geodesic = City.rtt_ms World.cities.(ny) World.cities.(london) in
  let carried =
    Propagation.intra_as_ms Params.default t ~asid:t1a ~from_metro:ny
      ~to_metro:london
  in
  Alcotest.(check (float 1e-9)) "tier1 inflation"
    (geodesic *. Params.default.Params.inflation_tier1)
    carried

let test_walk_rtt_local_path () =
  (* Stub -> CP: everything happens in Chicago, so the floor is just
     the per-hop penalties. *)
  let t, s = state () in
  let w = walk_exn s st in
  let rtt = Propagation.walk_rtt_ms Params.default t w ~terminal:Propagation.At_entry in
  Alcotest.(check (float 1e-9)) "two hop penalties"
    (2. *. Params.default.Params.hop_penalty_ms)
    rtt

let test_walk_rtt_terminal_carry () =
  (* Terminal To_city London adds CP's intra-AS carry from the entry
     (Chicago) to London. *)
  let t, s = state () in
  let w = walk_exn s st in
  let base =
    Propagation.walk_rtt_ms Params.default t w ~terminal:Propagation.At_entry
  in
  let extended =
    Propagation.walk_rtt_ms Params.default t w
      ~terminal:(Propagation.To_city london)
  in
  let expected_carry =
    City.rtt_ms World.cities.(chicago) World.cities.(london)
    *. Params.default.Params.inflation_content
  in
  Alcotest.(check (float 1e-6)) "carry added" expected_carry (extended -. base)

let test_walk_rtt_longer_for_detours () =
  (* T1b's path enters at NY; a client behind it in Tokyo would pay
     the ocean crossing. *)
  let t, s = state () in
  match Walk.from_metro s ~src:t1b ~start_metro:tokyo with
  | None -> Alcotest.fail "no walk"
  | Some w ->
      let rtt =
        Propagation.walk_rtt_ms Params.default t w ~terminal:Propagation.At_entry
      in
      Alcotest.(check bool) "transpacific floor > 100ms" true (rtt > 100.)

(* ---- Congestion ---- *)

let congestion ?(params = Params.default) () =
  let t = topo () in
  (t, Congestion.create params t ~seed:5)

let test_congestion_determinism () =
  let _, c1 = congestion () in
  let _, c2 = congestion () in
  for link_id = 0 to 8 do
    Alcotest.(check (float 1e-12)) "same utilization"
      (Congestion.utilization c1 ~link_id ~time_min:100.)
      (Congestion.utilization c2 ~link_id ~time_min:100.)
  done

let test_utilization_bounds () =
  let _, c = congestion () in
  for link_id = 0 to 8 do
    for h = 0 to 47 do
      let u = Congestion.utilization c ~link_id ~time_min:(float_of_int h *. 30.) in
      Alcotest.(check bool) "in [0, 0.97]" true (u >= 0. && u <= 0.97)
    done
  done

let test_offered_load_overrides () =
  let _, c = congestion () in
  Congestion.set_offered_load c ~link_id:0 ~gbps:97.;
  (* Capacity is 100 Gbps in the fixture: utilization near cap. *)
  let u = Congestion.utilization c ~link_id:0 ~time_min:0. in
  Alcotest.(check bool) "high util" true (u > 0.6);
  Congestion.clear_offered_loads c;
  let u' = Congestion.utilization c ~link_id:0 ~time_min:0. in
  Alcotest.(check bool) "reset to base" true (u' < u)

let test_queue_delay_monotone_in_util () =
  let _, c = congestion () in
  Congestion.set_offered_load c ~link_id:0 ~gbps:30.;
  let low = Congestion.queue_delay_ms c ~link_id:0 ~time_min:0. in
  Congestion.set_offered_load c ~link_id:0 ~gbps:95.;
  let high = Congestion.queue_delay_ms c ~link_id:0 ~time_min:0. in
  Alcotest.(check bool) "queueing grows" true (high > low);
  Alcotest.(check bool) "superlinear" true (high > 3. *. low)

let test_diurnal_mean_one () =
  let _, c = congestion () in
  let sum = ref 0. in
  let n = 96 in
  for i = 0 to n - 1 do
    sum :=
      !sum +. Congestion.diurnal_factor c ~metro:ny ~time_min:(float_of_int i *. 15.)
  done;
  Alcotest.(check bool) "mean ~1 over a day" true
    (Float.abs ((!sum /. float_of_int n) -. 1.) < 0.02)

let test_diurnal_timezone_shift () =
  (* Peak hits Tokyo and New York at different UTC times. *)
  let _, c = congestion () in
  let series metro =
    List.init 96 (fun i ->
        Congestion.diurnal_factor c ~metro ~time_min:(float_of_int i *. 15.))
  in
  Alcotest.(check bool) "shifted curves differ" true (series ny <> series tokyo)

let test_episode_deterministic () =
  let _, c1 = congestion () in
  let _, c2 = congestion () in
  for d = 0 to 2 do
    let t = (float_of_int d *. 1440.) +. 300. in
    Alcotest.(check (float 1e-12)) "same episode delay"
      (Congestion.episode_delay_ms c1 (Congestion.Access 3) ~time_min:t)
      (Congestion.episode_delay_ms c2 (Congestion.Access 3) ~time_min:t)
  done

let test_episode_nonnegative () =
  let _, c = congestion () in
  for i = 0 to 50 do
    let t = float_of_int i *. 37. in
    Alcotest.(check bool) "nonnegative" true
      (Congestion.episode_delay_ms c (Congestion.Dest_net i) ~time_min:t >= 0.)
  done

let test_episode_rate_zero_means_none () =
  let _, c =
    congestion ~params:Params.congestion_free ()
  in
  for i = 0 to 20 do
    Alcotest.(check (float 0.)) "no episodes" 0.
      (Congestion.episode_delay_ms c (Congestion.Access i)
         ~time_min:(float_of_int (i * 100)))
  done

let test_episodes_do_happen () =
  let _, c = congestion () in
  (* With access rate 0.8/day, scanning many entities and times must
     find at least one episode. *)
  let found = ref false in
  for e = 0 to 80 do
    for h = 0 to 23 do
      if
        Congestion.episode_delay_ms c (Congestion.Access e)
          ~time_min:(float_of_int h *. 60.)
        > 0.
      then found := true
    done
  done;
  Alcotest.(check bool) "episodes occur" true !found

let test_access_base_stable_and_positive () =
  let _, c = congestion () in
  let a = Congestion.access_base_ms c 7 in
  let b = Congestion.access_base_ms c 7 in
  Alcotest.(check (float 1e-12)) "stable per prefix" a b;
  Alcotest.(check bool) "positive" true (a > 0.);
  Alcotest.(check bool) "differs across prefixes" true
    (Congestion.access_base_ms c 8 <> a)

(* ---- Rtt ---- *)

let flow_for src =
  let t = topo () in
  let s = Propagate.run t (Announce.default ~origin:cp) in
  let w = walk_exn s src in
  (t, Rtt.make_flow ~access:(Congestion.Access 1) ~terminal:Propagation.At_entry w)

let test_floor_includes_access_base () =
  let t, flow = flow_for st in
  let c = Congestion.create Params.default t ~seed:5 in
  let floor = Rtt.floor_ms Params.default t c flow in
  let expected =
    (2. *. Params.default.Params.hop_penalty_ms)
    +. Congestion.access_base_ms c 1
  in
  Alcotest.(check (float 1e-9)) "floor = propagation + access" expected floor

let test_sample_at_least_floor_without_jitter () =
  let t, flow = flow_for st in
  let params = { Params.default with Params.minrtt_jitter_sigma = 0. } in
  let c = Congestion.create params t ~seed:5 in
  let rng = Sm.create 1 in
  for i = 0 to 20 do
    let v = Rtt.sample_ms c ~rng ~time_min:(float_of_int i *. 60.) flow in
    let floor = Rtt.floor_ms params t c flow in
    Alcotest.(check bool) "sample >= floor" true (v >= floor -. 1e-9)
  done

let test_sample_deterministic_given_rng () =
  let t, flow = flow_for st in
  let c = Congestion.create Params.default t ~seed:5 in
  let v1 = Rtt.sample_ms c ~rng:(Sm.create 9) ~time_min:100. flow in
  let v2 = Rtt.sample_ms c ~rng:(Sm.create 9) ~time_min:100. flow in
  Alcotest.(check (float 1e-12)) "reproducible" v1 v2

let test_extra_ms_added () =
  let t, flow = flow_for st in
  let flow' = { flow with Rtt.extra_ms = 42. } in
  let c = Congestion.create Params.default t ~seed:5 in
  Alcotest.(check (float 1e-9)) "extra added" 42.
    (Rtt.floor_ms Params.default t c flow'
    -. Rtt.floor_ms Params.default t c flow)

let test_median_of_samples_stable () =
  let t, flow = flow_for st in
  let c = Congestion.create Params.default t ~seed:5 in
  let m1 =
    Rtt.median_of_samples c ~rng:(Sm.create 3) ~time_min:200. ~count:21 flow
  in
  let m2 =
    Rtt.median_of_samples c ~rng:(Sm.create 3) ~time_min:200. ~count:21 flow
  in
  Alcotest.(check (float 1e-12)) "deterministic median" m1 m2;
  Alcotest.(check bool) "positive" true (m1 > 0.)

let test_shared_access_fate () =
  (* Two different walks sharing the same access entity see the same
     access episode: sample both during an access episode and check
     the delta matches. *)
  let t = topo () in
  let s = Propagate.run t (Announce.default ~origin:cp) in
  let w1 = walk_exn s st in
  let params = { Params.default with Params.minrtt_jitter_sigma = 0. } in
  let c = Congestion.create params t ~seed:5 in
  (* Find a time where access entity 1 is in an episode. *)
  let in_episode = ref None in
  for i = 0 to 2000 do
    let tm = float_of_int i *. 10. in
    if !in_episode = None
       && Congestion.episode_delay_ms c (Congestion.Access 1) ~time_min:tm > 0.
    then in_episode := Some tm
  done;
  match !in_episode with
  | None -> () (* extremely unlikely; nothing to assert *)
  | Some tm ->
      let flow terminal =
        Rtt.make_flow ~access:(Congestion.Access 1) ~terminal w1
      in
      let a =
        Rtt.sample_ms c ~rng:(Sm.create 1) ~time_min:tm
          (flow Propagation.At_entry)
      in
      let episode =
        Congestion.episode_delay_ms c (Congestion.Access 1) ~time_min:tm
      in
      Alcotest.(check bool) "episode visible in sample" true (a >= episode)

(* ---- One level per window ---- *)

(* The per-sample formula [samples_ms] replaced: floor and congestion
   recomputed for every sample, then one jitter draw. *)
let reference_sample c ~rng ~time_min (flow : Rtt.flow) =
  let params = Congestion.params c in
  let base = Rtt.floor_ms params (Congestion.topology c) c flow in
  let links =
    List.fold_left
      (fun acc (h : Walk.hop) ->
        acc
        +. Congestion.entity_delay_ms c
             (Congestion.Link h.Walk.link.Relation.id)
             ~time_min)
      0. flow.Rtt.walk.Walk.hops
  in
  let shared = function
    | Some e -> Congestion.entity_delay_ms c e ~time_min
    | None -> 0.
  in
  let congested = links +. shared flow.Rtt.access +. shared flow.Rtt.dest_net in
  let sigma = params.Params.minrtt_jitter_sigma in
  let jitter =
    if sigma <= 0. then 1. else Netsim_prng.Dist.lognormal rng ~mu:0. ~sigma
  in
  (base +. congested) *. jitter

let bits = Array.map Int64.bits_of_float

let window_flows () =
  let t, flow = flow_for st in
  let w = flow.Rtt.walk in
  ( t,
    [
      Rtt.make_flow ~terminal:Propagation.At_entry w;
      flow;
      Rtt.make_flow ~dest_net:(Congestion.Dest_net 2)
        ~terminal:Propagation.At_entry w;
      Rtt.make_flow ~access:(Congestion.Access 1)
        ~dest_net:(Congestion.Dest_net 2) ~extra_ms:3.5
        ~terminal:(Propagation.To_city ny) w;
    ] )

(* Episodes on most entity-days, so scanned windows fall both inside
   and outside one. *)
let stormy =
  {
    Params.default with
    Params.access_episode_per_day = 1.;
    transit_episode_per_day = 1.;
    episode_mean_minutes = 600.;
  }

let test_samples_ms_exact () =
  let t, flows = window_flows () in
  let inside = ref 0 and outside = ref 0 in
  List.iter
    (fun params ->
      let c = Congestion.create params t ~seed:5 in
      List.iter
        (fun flow ->
          for i = 0 to 40 do
            let time_min = float_of_int i *. 71. in
            if Congestion.episode_delay_ms c (Congestion.Access 1) ~time_min > 0.
            then incr inside
            else incr outside;
            let count = 1 + (i mod 7) in
            let rng = Sm.create i in
            let singles_rng = Sm.copy rng and reference_rng = Sm.copy rng in
            let got = Rtt.samples_ms c ~rng ~time_min ~count flow in
            let singles =
              Array.init count (fun _ ->
                  Rtt.sample_ms c ~rng:singles_rng ~time_min flow)
            in
            let reference =
              Array.init count (fun _ ->
                  reference_sample c ~rng:reference_rng ~time_min flow)
            in
            Alcotest.(check (array int64)) "= successive sample_ms" (bits singles)
              (bits got);
            Alcotest.(check (array int64)) "= per-sample recomputation"
              (bits reference) (bits got);
            let next = Sm.next_int64 rng in
            Alcotest.(check int64) "rng state vs sample_ms" next
              (Sm.next_int64 singles_rng);
            Alcotest.(check int64) "rng state vs reference" next
              (Sm.next_int64 reference_rng)
          done)
        flows)
    [ Params.default; { stormy with Params.minrtt_jitter_sigma = 0. }; stormy ];
  Alcotest.(check bool) "some windows inside an episode" true (!inside > 0);
  Alcotest.(check bool) "some windows outside an episode" true (!outside > 0)

let test_samples_ms_empty () =
  let t, flow = flow_for st in
  let c = Congestion.create Params.default t ~seed:5 in
  let rng = Sm.create 1 and before = Sm.create 1 in
  Alcotest.(check int) "no samples" 0
    (Array.length (Rtt.samples_ms c ~rng ~time_min:10. ~count:0 flow));
  Alcotest.(check int64) "rng untouched" (Sm.next_int64 before)
    (Sm.next_int64 rng)

(* The sample counter is bumped once per window instead of once per
   sample; its total, and every histogram observation, stay the same. *)
let test_samples_ms_metrics () =
  let module Metrics = Netsim_obs.Metrics in
  let t, flows = window_flows () in
  let c = Congestion.create stormy t ~seed:5 in
  let record f =
    Netsim_obs.Report.reset ();
    f ();
    let hist =
      List.filter_map
        (fun (name, buckets, summary) ->
          if name <> "latency.rtt.ms" then None
          else
            Some
              ( buckets,
                Netsim_stats.Summary.count summary,
                Int64.bits_of_float (Netsim_stats.Summary.total summary),
                Int64.bits_of_float (Netsim_stats.Summary.mean summary),
                Int64.bits_of_float (Netsim_stats.Summary.variance summary) ))
        (Metrics.histogram_export ())
    in
    (Metrics.counter_value (Metrics.counter "latency.rtt.samples"), hist)
  in
  let windowed () =
    let rng = Sm.create 4 in
    List.iteri
      (fun i flow ->
        ignore
          (Rtt.samples_ms c ~rng ~time_min:(float_of_int i *. 300.)
             ~count:(i + 2) flow))
      flows
  in
  let singles () =
    let rng = Sm.create 4 in
    List.iteri
      (fun i flow ->
        for _ = 1 to i + 2 do
          ignore
            (Rtt.sample_ms c ~rng ~time_min:(float_of_int i *. 300.) flow)
        done)
      flows
  in
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Netsim_obs.Report.reset ())
    (fun () ->
      let n_w, h_w = record windowed in
      let n_s, h_s = record singles in
      Alcotest.(check int) "latency.rtt.samples" n_s n_w;
      Alcotest.(check int) "counted every sample" 14 n_w;
      Alcotest.(check bool) "latency.rtt.ms identical" true (h_w = h_s && h_w <> []))

(* Reads of a shared [Congestion.t] are pure: four domains deriving
   access bases in different orders agree with a sequential run. *)
let test_access_base_domains () =
  let t = topo () in
  let n = 4096 in
  let shared = Congestion.create Params.default t ~seed:11 in
  let expected =
    let fresh = Congestion.create Params.default t ~seed:11 in
    Array.init n (Congestion.access_base_ms fresh)
  in
  let order d i =
    match d with
    | 0 -> i
    | 1 -> n - 1 - i
    | 2 -> (i * 7) mod n
    | _ -> (i * 1031 + 17) mod n
  in
  let results =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let got = Array.make n nan in
            for i = 0 to n - 1 do
              let id = order d i in
              got.(id) <- Congestion.access_base_ms shared id
            done;
            got))
    |> List.map Domain.join
  in
  List.iter
    (fun got ->
      Alcotest.(check (array int64)) "same as sequential" (bits expected)
        (bits got))
    results

let suite =
  [
    Alcotest.test_case "inflation by class" `Quick test_inflation_by_class;
    Alcotest.test_case "intra-AS same metro" `Quick test_intra_as_zero_same_metro;
    Alcotest.test_case "intra-AS inflated" `Quick test_intra_as_inflated;
    Alcotest.test_case "walk rtt local" `Quick test_walk_rtt_local_path;
    Alcotest.test_case "walk rtt terminal carry" `Quick test_walk_rtt_terminal_carry;
    Alcotest.test_case "walk rtt detour" `Quick test_walk_rtt_longer_for_detours;
    Alcotest.test_case "congestion determinism" `Quick test_congestion_determinism;
    Alcotest.test_case "utilization bounds" `Quick test_utilization_bounds;
    Alcotest.test_case "offered load override" `Quick test_offered_load_overrides;
    Alcotest.test_case "queue delay monotone" `Quick test_queue_delay_monotone_in_util;
    Alcotest.test_case "diurnal mean 1" `Quick test_diurnal_mean_one;
    Alcotest.test_case "diurnal timezone shift" `Quick test_diurnal_timezone_shift;
    Alcotest.test_case "episode deterministic" `Quick test_episode_deterministic;
    Alcotest.test_case "episode nonnegative" `Quick test_episode_nonnegative;
    Alcotest.test_case "episode rate zero" `Quick test_episode_rate_zero_means_none;
    Alcotest.test_case "episodes happen" `Quick test_episodes_do_happen;
    Alcotest.test_case "access base stable" `Quick test_access_base_stable_and_positive;
    Alcotest.test_case "floor includes access" `Quick test_floor_includes_access_base;
    Alcotest.test_case "sample >= floor" `Quick test_sample_at_least_floor_without_jitter;
    Alcotest.test_case "sample deterministic" `Quick test_sample_deterministic_given_rng;
    Alcotest.test_case "extra_ms added" `Quick test_extra_ms_added;
    Alcotest.test_case "median stable" `Quick test_median_of_samples_stable;
    Alcotest.test_case "shared access fate" `Quick test_shared_access_fate;
    Alcotest.test_case "samples_ms exact" `Quick test_samples_ms_exact;
    Alcotest.test_case "samples_ms empty" `Quick test_samples_ms_empty;
    Alcotest.test_case "samples_ms metrics" `Quick test_samples_ms_metrics;
    Alcotest.test_case "access base across domains" `Quick test_access_base_domains;
  ]
