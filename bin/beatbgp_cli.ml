(* Command-line driver: regenerate every figure and analysis of the
   paper from the simulator, print ASCII plots / CSV, and check the
   tracked prose claims.

   Every runner renders to a string instead of printing directly: this
   is what lets `beatbgp all` shard whole figures across the domain
   pool (Netsim_par.Pool) and still emit byte-identical stdout — the
   fan-in concatenates the per-figure strings in submission order.
   The pool size comes from NETSIM_DOMAINS (default: all cores; 1
   reproduces the serial path exactly). *)

open Cmdliner

let sizes_of ~seed ~prefixes ~days ~small =
  let base =
    if small then Beatbgp.Scenario.test_sizes else Beatbgp.Scenario.default_sizes
  in
  {
    base with
    Beatbgp.Scenario.seed;
    n_prefixes = (match prefixes with Some n -> n | None -> base.Beatbgp.Scenario.n_prefixes);
    days = (match days with Some d -> d | None -> base.Beatbgp.Scenario.days);
  }

let emit ~csv figure =
  if csv then Beatbgp.Figure.to_csv figure
  else begin
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (Beatbgp.Figure.render figure);
    let claims = Beatbgp.Claims.of_figure figure in
    if claims <> [] then begin
      Buffer.add_string buf "  paper-claim checks:\n";
      Buffer.add_string buf (Beatbgp.Claims.render claims)
    end;
    Buffer.contents buf
  end

(* ---- common options ---- *)

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.")

let prefixes_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "prefixes" ] ~doc:"Number of client prefixes.")

let days_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "days" ] ~doc:"Simulated measurement horizon in days.")

let small_t =
  Arg.(value & flag & info [ "small" ] ~doc:"Use the small test topology.")

let csv_t =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a plot.")

let trace_t =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Record spans and metrics while running and print the trace \
           report afterwards (also enabled by \\$(b,NETSIM_TRACE)).")

let metrics_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the recorded metrics and trace as JSON to \\$(docv).")

let metrics_prom_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-prom" ] ~docv:"FILE"
        ~doc:
          "Write the recorded metrics in Prometheus text-exposition format \
           (v0.0.4) to \\$(docv).  Implies tracing.")

let trace_perfetto_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-perfetto" ] ~docv:"FILE"
        ~doc:
          "Write the span tree as Chrome trace-event JSON to \\$(docv), \
           openable in Perfetto / chrome://tracing.  Implies tracing.")

let event_log_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "event-log" ] ~docv:"FILE"
        ~doc:
          "Record the structured event stream (flight recorder) and flush \
           it as JSONL to \\$(docv).  Deterministic: byte-identical \
           run-to-run and for any \\$(b,NETSIM_DOMAINS).")

let domains_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Size of the parallel domain pool (default: \\$(b,NETSIM_DOMAINS) \
           or all cores; 1 = serial). Output is byte-identical for any \
           value.")

let no_rib_cache_t =
  Arg.(
    value & flag
    & info [ "no-rib-cache" ]
        ~doc:
          "Disable the content-addressed RIB cache and recompute every \
           propagation from scratch (also \\$(b,NETSIM_RIB_CACHE=0)). \
           Output is byte-identical either way.")

let with_sizes f seed prefixes days small csv trace metrics_out metrics_prom
    trace_perfetto event_log domains no_rib_cache =
  let sizes = sizes_of ~seed ~prefixes ~days ~small in
  (match domains with
  | Some n -> Netsim_par.Pool.set_domain_count n
  | None -> ());
  if no_rib_cache then Netsim_bgp.Rib_cache.set_enabled false;
  let tracing =
    trace || metrics_out <> None || metrics_prom <> None
    || trace_perfetto <> None
    || Netsim_obs.Metrics.enabled ()
  in
  if tracing then Netsim_obs.Metrics.set_enabled true;
  if event_log <> None then Netsim_obs.Recorder.set_enabled true;
  (* Telemetry writes fail with an actionable message (bad directory,
     permissions) instead of a raw Sys_error backtrace. *)
  let write_or_die what write =
    try write ()
    with Failure msg | Sys_error msg ->
      Printf.eprintf "beatbgp: cannot write %s: %s\n" what msg;
      exit 1
  in
  print_string (f ~sizes ~csv);
  if tracing then begin
    print_newline ();
    print_string (Netsim_obs.Report.render ())
  end;
  (match metrics_out with
  | Some path ->
      write_or_die "metrics file" (fun () -> Netsim_obs.Report.write_json path)
  | None -> ());
  (match metrics_prom with
  | Some path ->
      write_or_die "Prometheus file" (fun () ->
          Netsim_obs.Export_prom.write path)
  | None -> ());
  (match trace_perfetto with
  | Some path ->
      write_or_die "Perfetto trace" (fun () ->
          Netsim_obs.Export_trace.write path)
  | None -> ());
  match event_log with
  | Some path ->
      write_or_die "event log" (fun () ->
          Netsim_obs.Report.write_text path (Netsim_obs.Recorder.to_jsonl ()))
  | None -> ()

let run_fig1 ~sizes ~csv =
  let fb = Beatbgp.Scenario.facebook ~sizes () in
  emit ~csv (Beatbgp.Fig1_pop_egress.run fb).Beatbgp.Fig1_pop_egress.figure

let run_fig2 ~sizes ~csv =
  let fb = Beatbgp.Scenario.facebook ~sizes () in
  emit ~csv (Beatbgp.Fig2_route_classes.run fb).Beatbgp.Fig2_route_classes.figure

let run_fig3 ~sizes ~csv =
  let ms = Beatbgp.Scenario.microsoft ~sizes () in
  emit ~csv (Beatbgp.Fig3_anycast_gap.run ms).Beatbgp.Fig3_anycast_gap.figure

let run_fig4 ~sizes ~csv =
  let ms = Beatbgp.Scenario.microsoft ~sizes () in
  emit ~csv (Beatbgp.Fig4_dns_redirection.run ms).Beatbgp.Fig4_dns_redirection.figure

let run_fig5 ~sizes ~csv =
  let gc = Beatbgp.Scenario.google ~sizes () in
  let result = Beatbgp.Fig5_cloud_tiers.run gc in
  emit ~csv result.Beatbgp.Fig5_cloud_tiers.figure
  ^
  if not csv then "\n" ^ Beatbgp.Fig5_cloud_tiers.render_map result else ""

let run_degrade ~sizes ~csv =
  let fb = Beatbgp.Scenario.facebook ~sizes () in
  let fig1 = Beatbgp.Fig1_pop_egress.run fb in
  emit ~csv (Beatbgp.Degrade_together.analyze fig1).Beatbgp.Degrade_together.figure

let run_peering ~sizes ~csv =
  emit ~csv (Beatbgp.Peering_ablation.run ~sizes ()).Beatbgp.Peering_ablation.figure

let run_grooming ~sizes ~csv =
  let ms = Beatbgp.Scenario.microsoft ~sizes () in
  emit ~csv (Beatbgp.Grooming.run ms).Beatbgp.Grooming.figure

let run_wanfrac ~sizes ~csv =
  let gc = Beatbgp.Scenario.google ~sizes () in
  emit ~csv (Beatbgp.Wan_fraction.run gc).Beatbgp.Wan_fraction.figure

let run_goodput ~sizes ~csv =
  let fb = Beatbgp.Scenario.facebook ~sizes () in
  emit ~csv (Beatbgp.Goodput_egress.run fb).Beatbgp.Goodput_egress.figure

let run_availability ~sizes ~csv =
  let ms = Beatbgp.Scenario.microsoft ~sizes () in
  let result = Beatbgp.Availability.run ms in
  let out = emit ~csv result.Beatbgp.Availability.figure in
  let asid =
    (Netsim_cdn.Anycast.deployment ms.Beatbgp.Scenario.ms_system)
      .Netsim_cdn.Deployment.asid
  in
  if csv then out
  else
    out
    ^ String.concat ""
        (List.map
           (fun (f : Beatbgp.Availability.site_failure) ->
             Printf.sprintf
               "  %-22s %-14s affected %5.1f%%  anycast +%6.1f ms  DNS-pinned %5.1f%% for %gs\n"
               (Netsim_dynamics.Event.label
                  (Netsim_dynamics.Event.Site_down
                     { asid; metro = f.Beatbgp.Availability.site }))
               (Netsim_geo.World.cities.(f.Beatbgp.Availability.site)).Netsim_geo.City.name
               (100. *. f.Beatbgp.Availability.affected_share)
               f.Beatbgp.Availability.anycast_delta_ms
               (100. *. f.Beatbgp.Availability.dns_outage_share)
               (f.Beatbgp.Availability.dns_outage_client_seconds
               /. Float.max 1e-9 f.Beatbgp.Availability.dns_outage_share))
           result.Beatbgp.Availability.failures)

let run_dynamics ~sizes ~csv =
  let fb = Beatbgp.Scenario.facebook ~sizes () in
  let result = Beatbgp.Dynamics_stale.run fb in
  let out = emit ~csv result.Beatbgp.Dynamics_stale.figure in
  if csv then out
  else
    out
    ^ String.concat ""
        (List.map
           (fun (c : Beatbgp.Dynamics_stale.cell) ->
             Printf.sprintf
               "  %-5s staleness %6.0f min  mean %+7.2f ms  p10 %+7.2f ms  \
                ticks %4d  events %5d  dirty %6d\n"
               c.Beatbgp.Dynamics_stale.churn c.Beatbgp.Dynamics_stale.staleness_min
               c.Beatbgp.Dynamics_stale.mean_advantage_ms
               c.Beatbgp.Dynamics_stale.p10_advantage_ms
               c.Beatbgp.Dynamics_stale.ticks c.Beatbgp.Dynamics_stale.events
               c.Beatbgp.Dynamics_stale.dirty_entries)
           result.Beatbgp.Dynamics_stale.cells)

let run_hybrid ~sizes ~csv =
  let ms = Beatbgp.Scenario.microsoft ~sizes () in
  emit ~csv (Beatbgp.Hybrid.run ms).Beatbgp.Hybrid.figure

let run_splittcp ~sizes ~csv =
  let gc = Beatbgp.Scenario.google ~sizes () in
  emit ~csv (Beatbgp.Split_tcp.run gc).Beatbgp.Split_tcp.figure

let run_sites ~sizes ~csv =
  emit ~csv (Beatbgp.Site_density.run ~sizes ()).Beatbgp.Site_density.figure

let run_ecs ~sizes ~csv =
  emit ~csv (Beatbgp.Ecs_ablation.run ~sizes ()).Beatbgp.Ecs_ablation.figure

let run_robustness ~sizes ~csv =
  let result = Beatbgp.Robustness.run ~sizes () in
  let out = emit ~csv result.Beatbgp.Robustness.figure in
  if csv then out
  else
    out
    ^ String.concat ""
        (List.map
           (fun (c : Beatbgp.Robustness.claim_summary) ->
             Printf.sprintf
               "  %-28s pass %.2f  mean %10.3f  std %8.3f  [%g, %g]\n"
               c.Beatbgp.Robustness.claim_id c.Beatbgp.Robustness.pass_rate
               c.Beatbgp.Robustness.mean c.Beatbgp.Robustness.std
               c.Beatbgp.Robustness.min c.Beatbgp.Robustness.max)
           result.Beatbgp.Robustness.claims)

let run_groompredict ~sizes ~csv =
  let ms = Beatbgp.Scenario.microsoft ~sizes () in
  emit ~csv (Beatbgp.Groom_predict.run ms).Beatbgp.Groom_predict.figure

let run_all ~sizes ~csv =
  (* Per-figure fan-out across the domain pool: every runner is an
     independent pipeline (each re-derives its scenario from the same
     sizes), and the string fan-in keeps stdout in the serial order. *)
  let runners =
    [|
      run_fig1; run_fig2; run_fig3; run_fig4; run_fig5; run_degrade;
      run_grooming; run_wanfrac; run_goodput; run_availability; run_hybrid;
      run_splittcp; run_ecs;
    |]
  in
  Netsim_par.Pool.map (fun run -> run ~sizes ~csv) runners
  |> Array.to_list |> String.concat ""

let run_compare ~sizes ~csv =
  ignore csv;
  let buf = Buffer.create 4096 in
  let module Sch = Beatbgp.Scheme in
  let rng = Netsim_prng.Splitmix.create (sizes.Beatbgp.Scenario.seed + 9) in
  let windows =
    Netsim_traffic.Window.windows ~days:sizes.Beatbgp.Scenario.days
      ~length_min:60.
  in
  let fb = Beatbgp.Scenario.facebook ~sizes () in
  Buffer.add_string buf "=== egress setting (Figure 1's cast) ===\n";
  Buffer.add_string buf
    (Sch.render
       (Sch.compare_schemes
          [ Sch.egress_bgp fb; Sch.egress_static_oracle fb; Sch.egress_oracle fb ]
          ~prefixes:fb.Beatbgp.Scenario.fb_prefixes ~rng ~windows));
  let ms = Beatbgp.Scenario.microsoft ~sizes () in
  Buffer.add_string buf "\n";
  Buffer.add_string buf "=== anycast CDN setting (Figures 3-4's cast) ===\n";
  Buffer.add_string buf
    (Sch.render
       (Sch.compare_schemes
          [
            Sch.anycast ms; Sch.unicast_oracle ms; Sch.dns_redirection ms;
            Sch.dns_redirection ~margin:25. ~name:"hybrid-25ms" ms;
          ]
          ~prefixes:ms.Beatbgp.Scenario.ms_prefixes ~rng ~windows));
  Buffer.contents buf

let run_rib ~sizes ~csv =
  (* Inspect the content provider's Adj-RIB-In toward a few client
     prefixes, at the serving PoP — the `show ip bgp` view of the
     Figure 1 setting. *)
  ignore csv;
  let buf = Buffer.create 4096 in
  let fb = Beatbgp.Scenario.facebook ~sizes () in
  let topo = fb.Beatbgp.Scenario.fb_deployment.Netsim_cdn.Deployment.topo in
  Array.iteri
    (fun i (e : Netsim_cdn.Egress.entry) ->
      if i < 5 then begin
        let p = e.Netsim_cdn.Egress.prefix in
        let state =
          Netsim_bgp.Rib_cache.run topo
            (Netsim_bgp.Announce.default ~origin:p.Netsim_traffic.Prefix.asid)
        in
        Buffer.add_string buf
          (Netsim_bgp.Show.rib_at_metro topo state
             fb.Beatbgp.Scenario.fb_deployment.Netsim_cdn.Deployment.asid
             ~metro:e.Netsim_cdn.Egress.pop);
        (match e.Netsim_cdn.Egress.options with
        | (o : Netsim_cdn.Egress.option_route) :: _ ->
            Buffer.add_string buf "serving flow:\n";
            Buffer.add_string buf
              (Netsim_bgp.Show.walk topo
                 o.Netsim_cdn.Egress.flow.Netsim_latency.Rtt.walk)
        | [] -> ());
        Buffer.add_string buf "\n"
      end)
    fb.Beatbgp.Scenario.fb_entries;
  Buffer.contents buf

let run_topo ~sizes ~csv =
  ignore csv;
  let buf = Buffer.create 2048 in
  let params =
    { sizes.Beatbgp.Scenario.base with Netsim_topo.Generator.seed = sizes.Beatbgp.Scenario.seed }
  in
  let topo = Netsim_topo.Generator.generate params in
  Buffer.add_string buf
    (Printf.sprintf "ASes: %d  links: %d\n" (Netsim_topo.Topology.as_count topo)
       (Netsim_topo.Topology.link_count topo));
  List.iter
    (fun klass ->
      Buffer.add_string buf
        (Printf.sprintf "  %-8s %d\n"
           (Netsim_topo.Asn.klass_to_string klass)
           (List.length (Netsim_topo.Topology.by_klass topo klass))))
    [
      Netsim_topo.Asn.Tier1; Netsim_topo.Asn.Transit; Netsim_topo.Asn.Eyeball;
      Netsim_topo.Asn.Stub;
    ];
  (match Netsim_topo.Invariants.check topo with
  | [] -> Buffer.add_string buf "invariants: OK\n"
  | violations ->
      Buffer.add_string buf
        (Printf.sprintf "invariants: %d violations\n" (List.length violations));
      List.iter
        (fun v -> Buffer.add_string buf (v ^ "\n"))
        violations);
  Buffer.add_string buf
    (Netsim_bgp.Metrics.render
       (Netsim_bgp.Metrics.compute
          ~rng:(Netsim_prng.Splitmix.create sizes.Beatbgp.Scenario.seed)
          topo));
  Buffer.contents buf

(* ---- the query daemon ---- *)

let run_serve small seed prefixes pops track snapshot save_snapshot streams
    listen_port churn churn_days batch batch_min event_log =
  let module Server = Netsim_serve.Server in
  let module Snapshot = Netsim_serve.Snapshot in
  (* The daemon always meters itself: PROM answers come from the
     registry.  Responses stay deterministic — wall-clock values only
     ever appear in PROM bodies. *)
  Netsim_obs.Metrics.set_enabled true;
  if event_log <> None then Netsim_obs.Recorder.set_enabled true;
  let base = if small then Server.small_config else Server.default_config in
  let pick v default = match v with Some v -> v | None -> default in
  let cfg =
    {
      base with
      Server.seed = pick seed base.Server.seed;
      n_prefixes = pick prefixes base.Server.n_prefixes;
      pop_count = pick pops base.Server.pop_count;
      track = pick track base.Server.track;
      churn;
      churn_days = pick churn_days base.Server.churn_days;
      batch = pick batch base.Server.batch;
      batch_minutes = pick batch_min base.Server.batch_minutes;
    }
  in
  let die msg =
    Printf.eprintf "beatbgp serve: %s\n" msg;
    exit 1
  in
  let server =
    match snapshot with
    | None -> Server.build cfg
    | Some path -> (
        match Snapshot.load ~path with
        | Error e -> die e
        | Ok snap -> (
            match Server.of_snapshot cfg snap with
            | Error e -> die e
            | Ok s -> s))
  in
  (match save_snapshot with
  | Some path -> (
      try Snapshot.save (Server.snapshot server) ~path
      with Sys_error e -> die e)
  | None -> ());
  (match (streams, listen_port) with
  | Some spec, _ ->
      (* Concurrent-clients mode: each FILE is one client's request
         stream; all streams are served through the round executor and
         the framed responses are printed per client — the transcript
         `make verify` diffs against the same streams served alone. *)
      let read_lines path =
        let ic = try open_in path with Sys_error e -> die e in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let rec go acc =
              match input_line ic with
              | exception End_of_file -> List.rev acc
              | l -> go (l :: acc)
            in
            go [])
      in
      let stream_files =
        String.split_on_char ',' spec |> List.filter (fun s -> s <> "")
      in
      let responses =
        Server.serve_streams server
          (Array.of_list (List.map read_lines stream_files))
      in
      Array.iteri
        (fun i resp ->
          Printf.printf "=== client %d ===\n" i;
          List.iter print_string resp)
        responses
  | None, Some port -> Server.listen server ~port
  | None, None ->
      Server.serve_fds server ~input:Unix.stdin ~output:Unix.stdout);
  match event_log with
  | Some path -> (
      try Netsim_obs.Report.write_text path (Netsim_obs.Recorder.to_jsonl ())
      with Failure msg | Sys_error msg -> die ("cannot write event log: " ^ msg))
  | None -> ()

let serve_cmd =
  let opt_int names doc =
    Arg.(value & opt (some int) None & info names ~doc)
  in
  let seed_t = opt_int [ "seed" ] "Scenario seed (default: 42, or 7 with $(b,--small))." in
  let prefixes_t = opt_int [ "prefixes" ] "Number of client prefixes." in
  let pops_t = opt_int [ "pops" ] "Number of provider PoP metros." in
  let track_t =
    opt_int [ "track" ]
      "Client-AS prefixes kept continuously converged in the engine."
  in
  let snapshot_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:"Load the serving state from a binary snapshot instead of \
                building it from the seed.")
  in
  let save_snapshot_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-snapshot" ] ~docv:"FILE"
          ~doc:"Write a binary snapshot of the serving state at startup, \
                then serve.")
  in
  let streams_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "streams" ] ~docv:"FILE,FILE,..."
          ~doc:"Serve the request streams in the given files as concurrent \
                clients (read-only verbs fan out over the domain pool) and \
                print each client's framed responses under a '=== client N \
                ===' header.  Responses per client are byte-identical to \
                serving that client alone.")
  in
  let listen_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "listen" ] ~docv:"PORT"
          ~doc:"Serve the line protocol on localhost:$(docv) instead of \
                stdin/stdout (concurrent connections; read-only queries \
                execute in parallel over the domain pool).")
  in
  let churn_t =
    Arg.(
      value & flag
      & info [ "churn" ]
          ~doc:"Schedule a link-flap and congestion-burst timeline; it is \
                applied incrementally between request batches.")
  in
  let churn_days_t = opt_int [ "churn-days" ] "Horizon of the churn scripts in days." in
  let batch_t =
    opt_int [ "batch" ]
      "Requests per dynamics advance (0 = the clock never moves on its own)."
  in
  let batch_min_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "batch-min" ] ~docv:"MINUTES"
          ~doc:"Simulated minutes the engine advances per batch.")
  in
  let doc = "Warm-RIB query daemon over the simulated Internet" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Answers CATCHMENT, EGRESS, RTT, EXPLAIN, STATS, SNAPSHOT, PROM, \
         ADVANCE and QUIT queries over a length-delimited line protocol (see \
         doc/serving.md) from continuously-converged BGP routing state.  \
         State comes from the seed or from a binary snapshot; with \
         $(b,--churn), a dynamics timeline is applied incrementally between \
         request batches.";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      const run_serve $ small_t $ seed_t $ prefixes_t $ pops_t $ track_t
      $ snapshot_t $ save_snapshot_t $ streams_t $ listen_t $ churn_t
      $ churn_days_t $ batch_t $ batch_min_t $ event_log_t)

(* ---- internet scale ---- *)

let run_scale small seed origins check domains trace =
  (match domains with
  | Some n -> Netsim_par.Pool.set_domain_count n
  | None -> ());
  let tracing = trace || Netsim_obs.Metrics.enabled () in
  if tracing then Netsim_obs.Metrics.set_enabled true;
  let base =
    if small then Beatbgp.Scale_sweep.small_params
    else Beatbgp.Scale_sweep.default_params
  in
  let p =
    {
      Beatbgp.Scale_sweep.sp_scale =
        { base.Beatbgp.Scale_sweep.sp_scale with
          Netsim_topo.Generator.sc_seed = seed };
      sp_origins = (match origins with Some n -> n | None ->
        base.Beatbgp.Scale_sweep.sp_origins);
      sp_check = check;
    }
  in
  (match Beatbgp.Scale_sweep.run p with
  | Ok report -> print_string report
  | Error e ->
      Printf.eprintf "beatbgp scale: %s\n" e;
      exit 1);
  if tracing then begin
    print_newline ();
    print_string (Netsim_obs.Report.render ())
  end

let scale_cmd =
  let origins_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "origins" ] ~docv:"N"
          ~doc:"Stub prefixes to propagate (default: 64).")
  in
  let check_t =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Recompute every origin with a second propagation inside \
             its pool task, and compare.")
  in
  let doc = "Internet-scale multi-origin propagation" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates an Internet-scale topology (~75k ASes by default; \
         ~600 with $(b,--small)), propagates a spread of stub prefixes \
         over the domain pool, 16 origins per task, reduces each \
         origin's routing state to a summary inside its task, and \
         reports aggregate reachability, path-length and route-class \
         statistics.  Output is byte-identical for any $(b,--domains) \
         value; the sweep does not use the RIB cache.  With \
         $(b,--check) every state is compared with a second \
         propagation of its origin.";
    ]
  in
  Cmd.v
    (Cmd.info "scale" ~doc ~man)
    Term.(
      const run_scale $ small_t $ seed_t $ origins_t $ check_t
      $ domains_t $ trace_t)

(* ---- route provenance ---- *)

let run_explain small seed prefixes pops track prefix asid provenance_out =
  let module Server = Netsim_serve.Server in
  let base = if small then Server.small_config else Server.default_config in
  let pick v default = match v with Some v -> v | None -> default in
  let cfg =
    {
      base with
      Server.seed = pick seed base.Server.seed;
      n_prefixes = pick prefixes base.Server.n_prefixes;
      pop_count = pick pops base.Server.pop_count;
      track = pick track base.Server.track;
    }
  in
  let die msg =
    Printf.eprintf "beatbgp explain: %s\n" msg;
    exit 1
  in
  (* Same scenario construction and the same answering function as the
     serve daemon, so the CLI prints exactly the EXPLAIN body a daemon
     would frame for the same arguments. *)
  let server = Server.build cfg in
  (match Server.explain server prefix asid with
  | Ok body -> print_endline body
  | Error e -> die e);
  match provenance_out with
  | None -> ()
  | Some path -> (
      let origin =
        if String.lowercase_ascii prefix = "anycast" then Server.provider server
        else
          match int_of_string_opt prefix with
          | Some id when id >= 0 && id < Array.length (Server.prefixes server) ->
              (Server.prefixes server).(id).Netsim_traffic.Prefix.asid
          | _ -> die ("not a prefix: " ^ prefix)
      in
      try
        Netsim_obs.Report.write_text path
          (Server.provenance_jsonl server ~origin)
      with Failure msg | Sys_error msg ->
        die ("cannot write provenance file: " ^ msg))

let explain_cmd =
  let opt_int names doc = Arg.(value & opt (some int) None & info names ~doc) in
  let seed_t = opt_int [ "seed" ] "Scenario seed (default: 42, or 7 with $(b,--small))." in
  let prefixes_t = opt_int [ "prefixes" ] "Number of client prefixes." in
  let pops_t = opt_int [ "pops" ] "Number of provider PoP metros." in
  let track_t =
    opt_int [ "track" ] "Client-AS prefixes kept warm (matches serve)."
  in
  let prefix_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "prefix" ] ~docv:"PREFIX"
          ~doc:"Destination: $(b,anycast) for the provider's prefix, or a \
                client prefix id.")
  in
  let as_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "as" ] ~docv:"AS"
          ~doc:"The AS whose routing decision to explain.")
  in
  let provenance_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "provenance-out" ] ~docv:"FILE"
          ~doc:"Also dump the full provenance table toward the destination \
                as schema-tagged JSONL ($(b,beatbgp.provenance/1)) to \
                $(docv).")
  in
  let doc = "Explain why an AS selected its route" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Prints the decision chain behind an AS's selected route toward a \
         destination prefix: the Gao-Rexford phase that admitted it, the \
         candidate set considered, the tie-break rule that discriminated, \
         the rejected runner-up, and the latency-optimal counterfactual \
         with its delta.  Output is byte-identical to the serve protocol's \
         EXPLAIN verb on the same scenario (see doc/observability.md).";
    ]
  in
  Cmd.v
    (Cmd.info "explain" ~doc ~man)
    Term.(
      const run_explain $ small_t $ seed_t $ prefixes_t $ pops_t $ track_t
      $ prefix_t $ as_t $ provenance_out_t)

let cmd name doc f =
  Cmd.v
    (Cmd.info name ~doc)
    Term.(
      const (with_sizes f) $ seed_t $ prefixes_t $ days_t $ small_t $ csv_t
      $ trace_t $ metrics_out_t $ metrics_prom_t $ trace_perfetto_t
      $ event_log_t $ domains_t $ no_rib_cache_t)

(* One line carrying every schema an artifact of this build can emit,
   so `beatbgp --version` answers "which build wrote this file?" for
   snapshots, event logs and bench JSON alike. *)
let version_string =
  Printf.sprintf
    "%s (events %s, snapshot %s/%d, provenance %s, bench schema %d)"
    (Netsim_serve.Version.git_sha ())
    Netsim_obs.Recorder.schema Netsim_serve.Snapshot.magic
    Netsim_serve.Snapshot.schema_version
    Netsim_obs.Provenance.schema Bench_support.Bench_out.schema_version

let main =
  let doc = "Reproduction of 'Beating BGP is Harder than we Thought' (HotNets '19)" in
  Cmd.group
    (Cmd.info "beatbgp" ~doc ~version:version_string)
    [
      cmd "fig1" "Figure 1: alternate-route improvement at PoPs" run_fig1;
      cmd "fig2" "Figure 2: peer vs transit, private vs public" run_fig2;
      cmd "fig3" "Figure 3: anycast vs best unicast front-end" run_fig3;
      cmd "fig4" "Figure 4: DNS redirection vs anycast" run_fig4;
      cmd "fig5" "Figure 5: Premium vs Standard cloud tiers" run_fig5;
      cmd "degrade" "Section 3.1.1: degrade-together analysis" run_degrade;
      cmd "peering" "Section 3.1.3: peering-footprint ablation" run_peering;
      cmd "grooming" "Section 3.2.2: anycast grooming (nature vs nurture)" run_grooming;
      cmd "wanfrac" "Section 3.3.2: single-WAN-fraction hypothesis" run_wanfrac;
      cmd "goodput" "Footnote 3: Figure 1 repeated for TCP goodput" run_goodput;
      cmd "availability" "Section 4: site failures, anycast vs DNS pinning" run_availability;
      cmd "dynamics" "Section 4: stale controller vs BGP under failures and congestion churn" run_dynamics;
      cmd "hybrid" "Section 4: hybrid anycast+redirection margin sweep" run_hybrid;
      cmd "splittcp" "Section 4: split TCP over WAN vs public backend" run_splittcp;
      cmd "sites" "Section 3.2.2: how many anycast sites are enough" run_sites;
      cmd "ecs" "Section 3.2.1: EDNS-Client-Subnet adoption ablation" run_ecs;
      cmd "groompredict" "Section 3.2.2: predicting grooming impact pre-announcement" run_groompredict;
      cmd "robustness" "Claim pass rates across independently generated Internets" run_robustness;
      cmd "topo" "Generate the base Internet and check invariants" run_topo;
      cmd "rib" "Inspect PoP Adj-RIB-Ins and serving flows (show ip bgp style)" run_rib;
      cmd "compare" "Unified scheme comparison: BGP vs oracles vs redirection" run_compare;
      cmd "all" "Run every figure and analysis" run_all;
      scale_cmd;
      serve_cmd;
      explain_cmd;
    ]

let () = exit (Cmd.eval main)
