(* Benchmark harness: one Bechamel test per paper figure/analysis
   (each run regenerates the artifact end-to-end at reduced scale) plus
   micro-benchmarks of the hot algorithms.  After timing, the harness
   regenerates every figure once at full scale and prints it, so
   `dune exec bench/main.exe` reproduces the paper's evaluation in one
   command. *)

open Bechamel
open Toolkit

module S = Beatbgp.Scenario

(* Benchmark scale is overridable from the environment so CI can run a
   cheap smoke pass (e.g. NETSIM_BENCH_PREFIXES=10 NETSIM_BENCH_DAYS=0.25)
   without editing this file.  The same overrides scale the full-size
   figure regeneration below. *)

let env_int name =
  match Sys.getenv_opt name with
  | Some s when s <> "" -> int_of_string_opt s
  | _ -> None

let env_float name =
  match Sys.getenv_opt name with
  | Some s when s <> "" -> float_of_string_opt s
  | _ -> None

let bench_prefixes = Option.value (env_int "NETSIM_BENCH_PREFIXES") ~default:80

let bench_days = Option.value (env_float "NETSIM_BENCH_DAYS") ~default:1.

(* Shared inputs are built once, outside the timed closures. *)

let bench_sizes =
  { S.test_sizes with S.n_prefixes = bench_prefixes; days = bench_days }
let fb = lazy (S.facebook ~sizes:bench_sizes ())
let ms = lazy (S.microsoft ~sizes:bench_sizes ())
let gc = lazy (S.google ~sizes:bench_sizes ~n_vantage:300 ())
let fig1_result = lazy (Beatbgp.Fig1_pop_egress.run (Lazy.force fb))

let base_topo = lazy (Netsim_topo.Generator.generate Netsim_topo.Generator.default_params)

let micro_state =
  lazy
    (let topo = Lazy.force base_topo in
     let dest = List.hd (Netsim_topo.Topology.by_klass topo Netsim_topo.Asn.Eyeball) in
     let state =
       Netsim_bgp.Propagate.run topo (Netsim_bgp.Announce.default ~origin:dest)
     in
     let src = List.hd (Netsim_topo.Topology.by_klass topo Netsim_topo.Asn.Stub) in
     let walk =
       match Netsim_bgp.Walk.of_source state ~src with
       | Some w -> w
       | None -> failwith "bench: no walk"
     in
     let congestion =
       Netsim_latency.Congestion.create Netsim_latency.Params.default topo ~seed:1
     in
     let flow =
       Netsim_latency.Rtt.make_flow
         ~access:(Netsim_latency.Congestion.Access 0)
         ~terminal:Netsim_latency.Propagation.At_entry walk
     in
     (topo, dest, state, src, congestion, flow))

(* ---- figure benches: regenerate each paper artifact ---- *)

let figure_tests =
  [
    Test.make ~name:"fig1/pop-egress"
      (Staged.stage (fun () ->
           ignore (Beatbgp.Fig1_pop_egress.run (Lazy.force fb))));
    Test.make ~name:"fig2/route-classes"
      (Staged.stage (fun () ->
           ignore (Beatbgp.Fig2_route_classes.run (Lazy.force fb))));
    Test.make ~name:"fig3/anycast-gap"
      (Staged.stage (fun () ->
           ignore (Beatbgp.Fig3_anycast_gap.run (Lazy.force ms))));
    Test.make ~name:"fig4/dns-redirection"
      (Staged.stage (fun () ->
           ignore (Beatbgp.Fig4_dns_redirection.run (Lazy.force ms))));
    Test.make ~name:"fig5/cloud-tiers"
      (Staged.stage (fun () ->
           ignore (Beatbgp.Fig5_cloud_tiers.run (Lazy.force gc))));
    Test.make ~name:"degrade/3.1.1"
      (Staged.stage (fun () ->
           ignore (Beatbgp.Degrade_together.analyze (Lazy.force fig1_result))));
    Test.make ~name:"grooming/3.2.2"
      (Staged.stage (fun () ->
           ignore (Beatbgp.Grooming.run ~rounds:2 (Lazy.force ms))));
    Test.make ~name:"wanfrac/3.3.2"
      (Staged.stage (fun () ->
           ignore (Beatbgp.Wan_fraction.run (Lazy.force gc))));
    Test.make ~name:"peering/3.1.3"
      (Staged.stage (fun () ->
           ignore
             (Beatbgp.Peering_ablation.run ~fractions:[ 1.0; 0.25 ]
                ~sizes:bench_sizes ())));
    Test.make ~name:"goodput/footnote-3"
      (Staged.stage (fun () ->
           ignore (Beatbgp.Goodput_egress.run (Lazy.force fb))));
    Test.make ~name:"availability/4"
      (Staged.stage (fun () ->
           ignore (Beatbgp.Availability.run (Lazy.force ms))));
    Test.make ~name:"hybrid/4"
      (Staged.stage (fun () ->
           ignore (Beatbgp.Hybrid.run ~margins:[ 0.; 25. ] (Lazy.force ms))));
    Test.make ~name:"splittcp/4"
      (Staged.stage (fun () ->
           ignore (Beatbgp.Split_tcp.run (Lazy.force gc))));
    Test.make ~name:"sites/3.2.2"
      (Staged.stage (fun () ->
           ignore
             (Beatbgp.Site_density.run ~sizes:bench_sizes
                ~site_counts:[ 6; 24 ] ())));
    Test.make ~name:"ecs/3.2.1"
      (Staged.stage (fun () ->
           ignore
             (Beatbgp.Ecs_ablation.run ~sizes:bench_sizes
                ~adoptions:[ 0.001; 1.0 ] ())));
    Test.make ~name:"compare/scheme-harness"
      (Staged.stage (fun () ->
           let fb = Lazy.force fb in
           let windows =
             Netsim_traffic.Window.windows ~days:0.5 ~length_min:90.
           in
           ignore
             (Beatbgp.Scheme.compare_schemes
                [
                  Beatbgp.Scheme.egress_bgp fb;
                  Beatbgp.Scheme.egress_oracle fb;
                ]
                ~prefixes:fb.S.fb_prefixes
                ~rng:(Netsim_prng.Splitmix.create 9) ~windows)));
  ]

(* ---- micro benches: the hot algorithms ---- *)

let micro_tests =
  [
    Test.make ~name:"micro/topology-generate"
      (Staged.stage (fun () ->
           ignore
             (Netsim_topo.Generator.generate Netsim_topo.Generator.small_params)));
    Test.make ~name:"micro/bgp-propagate"
      (Staged.stage (fun () ->
           let topo, dest, _, _, _, _ = Lazy.force micro_state in
           ignore
             (Netsim_bgp.Propagate.run topo
                (Netsim_bgp.Announce.default ~origin:dest))));
    Test.make ~name:"micro/catchment"
      (Staged.stage (fun () ->
           let _, _, state, _, _, _ = Lazy.force micro_state in
           ignore (Netsim_bgp.Catchment.compute state)));
    Test.make ~name:"micro/walk"
      (Staged.stage (fun () ->
           let _, _, state, src, _, _ = Lazy.force micro_state in
           ignore (Netsim_bgp.Walk.of_source state ~src)));
    Test.make ~name:"micro/rtt-sample"
      (Staged.stage
         (let rng = Netsim_prng.Splitmix.create 3 in
          fun () ->
            let _, _, _, _, congestion, flow = Lazy.force micro_state in
            ignore
              (Netsim_latency.Rtt.sample_ms congestion ~rng ~time_min:300. flow)));
    Test.make ~name:"micro/congestion-entity"
      (Staged.stage (fun () ->
           let _, _, _, _, congestion, _ = Lazy.force micro_state in
           ignore
             (Netsim_latency.Congestion.entity_delay_ms congestion
                (Netsim_latency.Congestion.Link 0) ~time_min:300.)));
    Test.make ~name:"micro/rtt-samples-window"
      (Staged.stage
         (let rng = Netsim_prng.Splitmix.create 3 in
          fun () ->
            let _, _, _, _, congestion, flow = Lazy.force micro_state in
            ignore
              (Netsim_latency.Rtt.samples_ms congestion ~rng ~time_min:300.
                 ~count:5 flow)));
    Test.make ~name:"micro/received-ribin"
      (Staged.stage (fun () ->
           let _, _, state, src, _, _ = Lazy.force micro_state in
           ignore (Netsim_bgp.Propagate.received state src)));
    (* One link failure on the default topology: filter the link array
       and rebuild the CSR arena, as every dynamics delta does. *)
    Test.make ~name:"micro/remove-links"
      (Staged.stage (fun () ->
           let topo, _, _, _, _, _ = Lazy.force micro_state in
           ignore (Netsim_topo.Topology.remove_links topo [ 0 ])));
  ]

let run_benchmarks () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 2.) ~kde:None ~stabilize:false ()
  in
  let all_tests =
    Test.make_grouped ~name:"beatbgp" (figure_tests @ micro_tests)
  in
  let raw = Benchmark.all cfg instances all_tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name est acc -> (name, est) :: acc) results []
    |> List.sort compare
  in
  Printf.printf "%-36s %16s %10s\n" "benchmark" "time/run" "r^2";
  Printf.printf "%s\n" (String.make 64 '-');
  List.iter
    (fun (name, est) ->
      let time_ns =
        match Analyze.OLS.estimates est with
        | Some (t :: _) -> t
        | Some [] | None -> nan
      in
      let r2 = match Analyze.OLS.r_square est with Some r -> r | None -> nan in
      let pretty =
        if Float.is_nan time_ns then "n/a"
        else if time_ns > 1e9 then Printf.sprintf "%.2f s" (time_ns /. 1e9)
        else if time_ns > 1e6 then Printf.sprintf "%.2f ms" (time_ns /. 1e6)
        else if time_ns > 1e3 then Printf.sprintf "%.2f us" (time_ns /. 1e3)
        else Printf.sprintf "%.0f ns" time_ns
      in
      Printf.printf "%-36s %16s %10.4f\n" name pretty r2)
    rows

(* ---- full-scale regeneration of every figure ---- *)

let regenerate_figures () =
  print_endline "";
  print_endline "=== full-scale figure regeneration (paper artifacts) ===";
  let sizes =
    {
      S.default_sizes with
      S.n_prefixes =
        Option.value (env_int "NETSIM_BENCH_PREFIXES")
          ~default:S.default_sizes.S.n_prefixes;
      days =
        Option.value (env_float "NETSIM_BENCH_DAYS")
          ~default:S.default_sizes.S.days;
    }
  in
  let show fig =
    print_endline "";
    print_string (Beatbgp.Figure.render fig);
    let claims = Beatbgp.Claims.of_figure fig in
    if claims <> [] then print_string (Beatbgp.Claims.render claims)
  in
  let fb = S.facebook ~sizes () in
  let fig1 = Beatbgp.Fig1_pop_egress.run fb in
  show fig1.Beatbgp.Fig1_pop_egress.figure;
  show (Beatbgp.Fig2_route_classes.run fb).Beatbgp.Fig2_route_classes.figure;
  let ms = S.microsoft ~sizes () in
  show (Beatbgp.Fig3_anycast_gap.run ms).Beatbgp.Fig3_anycast_gap.figure;
  show (Beatbgp.Fig4_dns_redirection.run ms).Beatbgp.Fig4_dns_redirection.figure;
  let gc = S.google ~sizes () in
  let fig5 = Beatbgp.Fig5_cloud_tiers.run gc in
  show fig5.Beatbgp.Fig5_cloud_tiers.figure;
  print_endline "";
  print_string (Beatbgp.Fig5_cloud_tiers.render_map fig5);
  show (Beatbgp.Degrade_together.analyze fig1).Beatbgp.Degrade_together.figure

let () =
  run_benchmarks ();
  (* Timed runs stay uninstrumented (unless NETSIM_TRACE was set);
     regeneration runs with metrics on so the work totals of one full
     pipeline pass are printed alongside the timings. *)
  Netsim_obs.Report.reset ();
  Netsim_obs.Metrics.set_enabled true;
  regenerate_figures ();
  Netsim_obs.Metrics.set_enabled false;
  print_endline "";
  print_endline "=== metrics over the full-scale regeneration ===";
  print_string (Netsim_obs.Report.metrics_table ())
