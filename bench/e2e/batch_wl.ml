(* The two batch workloads.

   figures: the 13 runners of `beatbgp all`, each building its own
   scenario as the CLI does, fanned out over Pool.map.  Sizes are
   Scenario.default_sizes (the paper-reproduction topology, 320
   prefixes) with a 6-hour measurement horizon instead of 3 days, so a
   pass takes seconds and a run holds several passes; RTT and
   congestion sampling is still the largest layer.

   scale: Scale_sweep.run at its default parameters (74,516 ASes, 64
   origins, batch 16).  Every sweep regenerates its topology, so the
   RIB cache never hits across sweeps.

   An op is one pass (figures) or one sweep (scale).  Every op's output
   must equal the first op's byte for byte, and for the seeds in
   [digests] it must also match the digest stored here. *)

module Span = Netsim_obs.Span
module Metrics = Netsim_obs.Metrics
module Pool = Netsim_par.Pool
module Generator = Netsim_topo.Generator
module Topology = Netsim_topo.Topology
module B = Beatbgp

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ---- the workloads ---------------------------------------------------- *)

type job = {
  setup : unit -> unit;  (** the set-up that [setup_s] times *)
  setup_reps : int;  (** set-ups per run; [setup_s] is their median *)
  op : unit -> string * int;  (** output text, claims failed *)
  units_per_op : unit -> float;  (** throughput units one op completes *)
  unit_name : string;
  digests : (int * string) list;  (** MD5 of the op output, per seed *)
}

let figure_sizes seed = { B.Scenario.default_sizes with B.Scenario.seed; days = 0.25 }

let scenario f = Span.with_ ~name:"e2e.scenario" f
let run f = Span.with_ ~name:"e2e.run" f

(* The runners of `beatbgp all`, in its order. *)
let runners sizes =
  let fb () = scenario (fun () -> B.Scenario.facebook ~sizes ()) in
  let ms () = scenario (fun () -> B.Scenario.microsoft ~sizes ()) in
  let gc () = scenario (fun () -> B.Scenario.google ~sizes ()) in
  [|
    ("fig1", fun () -> let s = fb () in run (fun () -> (B.Fig1_pop_egress.run s).B.Fig1_pop_egress.figure));
    ("fig2", fun () -> let s = fb () in run (fun () -> (B.Fig2_route_classes.run s).B.Fig2_route_classes.figure));
    ("fig3", fun () -> let s = ms () in run (fun () -> (B.Fig3_anycast_gap.run s).B.Fig3_anycast_gap.figure));
    ("fig4", fun () -> let s = ms () in run (fun () -> (B.Fig4_dns_redirection.run s).B.Fig4_dns_redirection.figure));
    ("fig5", fun () -> let s = gc () in run (fun () -> (B.Fig5_cloud_tiers.run s).B.Fig5_cloud_tiers.figure));
    ("degrade", fun () ->
        let s = fb () in
        run (fun () ->
            (B.Degrade_together.analyze (B.Fig1_pop_egress.run s)).B.Degrade_together.figure));
    ("grooming", fun () -> let s = ms () in run (fun () -> (B.Grooming.run s).B.Grooming.figure));
    ("wanfrac", fun () -> let s = gc () in run (fun () -> (B.Wan_fraction.run s).B.Wan_fraction.figure));
    ("goodput", fun () -> let s = fb () in run (fun () -> (B.Goodput_egress.run s).B.Goodput_egress.figure));
    ("availability", fun () -> let s = ms () in run (fun () -> (B.Availability.run s).B.Availability.figure));
    ("hybrid", fun () -> let s = ms () in run (fun () -> (B.Hybrid.run s).B.Hybrid.figure));
    ("splittcp", fun () -> let s = gc () in run (fun () -> (B.Split_tcp.run s).B.Split_tcp.figure));
    ("ecs", fun () -> run (fun () -> (B.Ecs_ablation.run ~sizes ()).B.Ecs_ablation.figure));
  |]

let render fig =
  Span.with_ ~name:"e2e.render" @@ fun () ->
  let claims = B.Claims.of_figure fig in
  ( B.Figure.render fig ^ B.Claims.render claims,
    List.length (List.filter (fun c -> not (B.Claims.passes c)) claims) )

(* Runner indices by falling single-domain run time at these sizes.  The
   pool hands tasks out in submission order, so longest-first keeps the
   last domain's idle tail short and the pass time measures work, not
   how the seed happened to pack the two slowest runners. *)
let longest_first = [| 12; 10; 5; 6; 0; 3; 9; 1; 2; 8; 11; 4; 7 |]

let figures ~seed =
  let sizes = figure_sizes seed in
  let rs = runners sizes in
  {
    setup =
      (fun () ->
        ignore (scenario (fun () -> B.Scenario.facebook ~sizes ()));
        ignore (scenario (fun () -> B.Scenario.microsoft ~sizes ()));
        ignore (scenario (fun () -> B.Scenario.google ~sizes ())));
    setup_reps = 5;
    op =
      (fun () ->
        let outs =
          Pool.map
            (fun i ->
              let id, f = rs.(i) in
              Span.with_ ~name:(Layers.runner_prefix ^ id) (fun () -> render (f ())))
            longest_first
        in
        (* Reassemble in `beatbgp all` order. *)
        let text = Array.make (Array.length rs) "" in
        Array.iteri (fun k i -> text.(i) <- fst outs.(k)) longest_first;
        ( String.concat "" (Array.to_list text),
          Array.fold_left (fun a (_, c) -> a + c) 0 outs ));
    units_per_op = (fun () -> float_of_int (Array.length rs));
    unit_name = "figure runners";
    digests = [ (42, "0a1cd77dc32d39d7911b4f49f9271b05"); (43, "e45bc49a77f1264940dfa4c02586eb8e") ];
  }

let scale ~seed =
  let params =
    {
      B.Scale_sweep.default_params with
      B.Scale_sweep.sp_scale = { Generator.scale_params with Generator.sc_seed = seed };
    }
  in
  let generate () =
    match Generator.generate_scale params.B.Scale_sweep.sp_scale with
    | Ok t -> t
    | Error e -> failwith ("generate_scale: " ^ e)
  in
  let ases = ref 0 in
  {
    setup = (fun () -> ases := Topology.as_count (generate ()));
    setup_reps = 3;
    op =
      (fun () ->
        match Span.with_ ~name:"e2e.scale_sweep" (fun () -> B.Scale_sweep.run params) with
        | Ok report -> (report, 0)
        | Error e -> failwith ("Scale_sweep.run: " ^ e));
    (* AS-states one sweep computes: every origin's state at every AS. *)
    units_per_op =
      (fun () -> float_of_int (!ases * params.B.Scale_sweep.sp_origins));
    unit_name = "AS-states";
    digests = [ (42, "eaaef0ec71518dfb4c87124fce408514"); (43, "5ac205a218012369c49b471239e9d703") ];
  }

(* ---- running a job ---------------------------------------------------- *)

type op = {
  out : (string * int, string) result;  (** output digest and claims failed *)
  wall : float;
  minor_words : float;
  majors : int;  (** major GC cycles completed during the op *)
}

(* Ops back to back until [seconds] have passed (at least one).  Every
   op starts, untimed, from an empty RIB cache and a collected heap, as
   a fresh `beatbgp` process would: an op cannot hit entries the
   previous one left, and memory does not pile up across ops.  [before]
   and [after] run around each op, outside its timing. *)
let ops ?(before = ignore) ?(after = ignore) job ~seconds =
  let t0 = Unix.gettimeofday () in
  let rec go acc =
    if acc <> [] && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else begin
      Netsim_bgp.Rib_cache.clear ();
      Gc.full_major ();
      before ();
      let g0 = Gc.quick_stat () in
      let out, wall =
        time (fun () ->
            match job.op () with
            | out, claims -> Ok (Digest.to_hex (Digest.string out), claims)
            | exception e -> Error (Printexc.to_string e))
      in
      let g1 = Gc.quick_stat () in
      after ();
      go
        ({
           out;
           wall;
           minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
           majors = g1.Gc.major_collections - g0.Gc.major_collections;
         }
        :: acc)
    end
  in
  go []

(* Every op must succeed and agree with the first; the first must match
   the stored digest when the seed has one. *)
let judge job ~seed results =
  let outs = List.map (fun o -> o.out) results in
  let reference =
    match List.assoc_opt seed job.digests with
    | Some d -> Some d
    | None -> List.find_map (function Ok (d, _) -> Some d | Error _ -> None) outs
  in
  let bad = function Ok (d, _) -> Some d <> reference | Error _ -> true in
  let errors = List.filter_map (function Error e -> Some ("op raised: " ^ e) | _ -> None) outs in
  let claims =
    match outs with
    | Ok (_, c) :: _ -> [ Printf.sprintf "paper claims failing at this seed: %d" c ]
    | _ -> []
  in
  let digests =
    List.sort_uniq compare (List.filter_map (function Ok (d, _) -> Some d | _ -> None) outs)
  in
  {
    Report.attempted = List.length results;
    failed = List.length (List.filter bad outs);
    notes =
      Printf.sprintf "output digest(s) %s; expected %s (%s)" (String.concat ", " digests)
        (Option.value ~default:"-" reference)
        (if List.mem_assoc seed job.digests then "stored for this seed" else "the first op's")
      :: ("op walls (s): "
         ^ String.concat " " (List.map (fun o -> Printf.sprintf "%.3f" o.wall) results))
      :: (claims @ errors);
  }

let walls results = Array.of_list (List.map (fun o -> o.wall) results)

let setup_s job = Tail.median (Array.init job.setup_reps (fun _ -> snd (time job.setup)))

let untraced job ~seed ~seconds =
  Metrics.set_enabled false;
  let setup = setup_s job in
  let results = ops job ~seconds in
  let w = walls results in
  let p50 = Tail.median w in
  let n = Array.length w in
  ( judge job ~seed results,
    [
      Report.row ~n:job.setup_reps "setup_s" setup;
      Report.row ~n "op_p50_ms" (p50 *. 1000.);
      Report.row ~n ~note:(job.unit_name ^ " per second") "throughput"
        (job.units_per_op () /. p50);
      Report.row "peak_rss_mb" (Proc.peak_rss_mb ());
    ] )

(* ---- the traced run --------------------------------------------------- *)

let counter name = float_of_int (Metrics.counter_value (Metrics.counter name))

let runtime name = Option.value ~default:0. (List.assoc_opt name (Metrics.runtime_rows ()))

(* Pool utilization of the op's fan-out, from the pool's runtime
   gauges: busy and idle domain-seconds and the spread of busy time
   across domains. *)
let par_sample domains =
  let busy = List.init domains (fun d -> runtime (Printf.sprintf "par.d%d.busy_ms" d)) in
  ( runtime "par.job.busy_ms" /. 1000.,
    runtime "par.job.idle_ms" /. 1000.,
    (List.fold_left Float.max 0. busy -. List.fold_left Float.min infinity busy) /. 1000. )

(* Three phases, each about a third of [seconds]: (A) untraced ops at
   the default pool size, the overhead baseline; (B) traced ops at the
   same size, for the overhead and pool utilization; (C) traced ops on
   one domain, for the layer split — with no parallel fan-out every
   span's self time is exact, so the rows add up to the wall time. *)
let traced job ~seed ~seconds ~workload =
  let domains = Pool.domain_count () in
  job.setup ();
  let third = seconds /. 3. in
  Metrics.set_enabled false;
  let a = ops job ~seconds:third in
  Metrics.set_enabled true;
  let b_par = ref [] in
  let b =
    ops job ~seconds:third ~before:Metrics.reset ~after:(fun () ->
        b_par := par_sample domains :: !b_par)
  in
  Pool.set_domain_count 1;
  Metrics.reset ();
  Span.reset ();
  let c = ops job ~seconds:third in
  let gc1 = Gc.quick_stat () in
  Pool.set_domain_count domains;
  let verdict = judge job ~seed (a @ b @ c) in
  let passes = float_of_int (List.length c) in
  let per_op x = x /. passes in
  let roots = Span.tree () in
  let layer_rows, unknown = Layers.flatten roots in
  let wall_c = Tail.sum (walls c) in
  let accounted = List.fold_left (fun s (_, v) -> s +. v) 0. layer_rows in
  let hits = counter "bgp.rib_cache.hits" and misses = counter "bgp.rib_cache.misses" in
  let mean f l = Tail.mean (Array.of_list (List.map f l)) in
  let wa = Tail.median (walls a) and wb = Tail.median (walls b) in
  let rows =
    List.map (fun (l, v) -> Report.row l (per_op v)) layer_rows
    @ [
        Report.row "bgp.propagate_calls" (per_op (float_of_int (Layers.calls "bgp.propagate" roots)));
        Report.row "bgp.ases_visited" (per_op (counter "bgp.ases_visited"));
        Report.row "bgp.reconverge_dirty" (per_op (counter "bgp.reconverge_dirty_ases"));
        Report.row "bgp.rib_cache.hit_ratio" (if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
        Report.row "bgp.rib_cache.misses" (per_op misses);
        Report.row "latency.rtt_samples" (per_op (counter "latency.rtt.samples"));
        Report.row "latency.congestion_samples" (per_op (counter "latency.congestion.samples"));
        Report.row "dynamics.events" (per_op (counter "dynamics.events"));
        Report.row ~n:(List.length b) "par.busy_s" (mean (fun (x, _, _) -> x) !b_par);
        Report.row ~n:(List.length b) "par.idle_s" (mean (fun (_, x, _) -> x) !b_par);
        Report.row ~n:(List.length b) "par.skew_s" (mean (fun (_, _, x) -> x) !b_par);
        Report.row "gc.minor_words_per_op" (per_op (List.fold_left (fun a o -> a +. o.minor_words) 0. c));
        Report.row "gc.major_collections"
          (per_op (float_of_int (List.fold_left (fun a o -> a + o.majors) 0 c)));
        Report.row "gc.heap_mb" (float_of_int (gc1.Gc.heap_words * (Sys.word_size / 8)) /. 1048576.);
        Report.row ~n:(List.length a + List.length b)
          ~note:(Printf.sprintf "traced %.3f s vs untraced %.3f s per op" wb wa)
          "trace_overhead_pct" ((wb -. wa) /. wa *. 100.);
      ]
  in
  let notes =
    verdict.Report.notes
    @ [
        Printf.sprintf "domains %d (layer split on 1 domain, %d op(s), %.3f s wall)" domains
          (List.length c) wall_c;
        Printf.sprintf "layer rows + unattributed = %.3f s of %.3f s wall (%.2f%% off)" accounted
          wall_c
          (100. *. Float.abs (accounted -. wall_c) /. wall_c);
      ]
    @ List.map (fun n -> "span with no layer row: " ^ n) unknown
  in
  Report.write_trace ~workload ~seed ~domains ~rows ~layer_rows:(List.map (fun (l, v) -> (l, per_op v)) layer_rows);
  ({ verdict with Report.notes }, rows)
