(* Property-based tests (qcheck) over randomized topologies: BGP
   safety/consistency invariants that must hold for every generated
   Internet and announcement configuration. *)

module Sm = Netsim_prng.Splitmix
module Asn = Netsim_topo.Asn
module Relation = Netsim_topo.Relation
module Topology = Netsim_topo.Topology
module Generator = Netsim_topo.Generator
module Announce = Netsim_bgp.Announce
module Route = Netsim_bgp.Route
module Propagate = Netsim_bgp.Propagate
module Catchment = Netsim_bgp.Catchment
module Walk = Netsim_bgp.Walk
module Timeline = Netsim_dynamics.Timeline

(* Randomized small Internets: vary the seed and the class counts. *)
let random_topo seed =
  let params =
    {
      Generator.small_params with
      Generator.seed;
      n_tier1 = 2 + (seed mod 3);
      n_transit = 4 + (seed mod 5);
      n_eyeball = 8 + (seed mod 10);
      n_stub = 6 + (seed mod 8);
    }
  in
  Generator.generate params

let pick_origin topo seed =
  let eyeballs = Topology.by_klass topo Asn.Eyeball in
  List.nth eyeballs (seed mod List.length eyeballs)

let rel_between topo a b =
  match Topology.links_between topo a b with
  | [] -> None
  | l :: _ -> Some (Relation.rel_of l a)

let valley_free topo path =
  let rec go phase = function
    | a :: (b :: _ as rest) -> (
        match rel_between topo a b with
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

let seed_gen = QCheck.int_range 0 500

let prop_full_reachability =
  QCheck.Test.make ~name:"default announcement reaches every AS" ~count:40
    seed_gen (fun seed ->
      let topo = random_topo seed in
      let origin = pick_origin topo seed in
      let s = Propagate.run topo (Announce.default ~origin) in
      let ok = ref true in
      for x = 0 to Topology.as_count topo - 1 do
        if not (Propagate.reachable s x) then ok := false
      done;
      !ok)

let prop_valley_free =
  QCheck.Test.make ~name:"all selected paths are valley-free" ~count:25
    seed_gen (fun seed ->
      let topo = random_topo seed in
      let origin = pick_origin topo seed in
      let s = Propagate.run topo (Announce.default ~origin) in
      let ok = ref true in
      for x = 0 to Topology.as_count topo - 1 do
        if x <> origin then begin
          match Propagate.as_path s x with
          | [] -> ok := false
          | path -> if not (valley_free topo (x :: path)) then ok := false
        end
      done;
      !ok)

let prop_loop_free =
  QCheck.Test.make ~name:"no AS repeats on any selected path" ~count:40
    seed_gen (fun seed ->
      let topo = random_topo seed in
      let origin = pick_origin topo seed in
      let s = Propagate.run topo (Announce.default ~origin) in
      let ok = ref true in
      for x = 0 to Topology.as_count topo - 1 do
        if x <> origin then begin
          let path = x :: Propagate.as_path s x in
          if List.length path <> List.length (List.sort_uniq compare path) then
            ok := false
        end
      done;
      !ok)

let prop_path_len_vs_as_path =
  QCheck.Test.make
    ~name:"without prepending, path_len equals AS-path length" ~count:40
    seed_gen (fun seed ->
      let topo = random_topo seed in
      let origin = pick_origin topo seed in
      let s = Propagate.run topo (Announce.default ~origin) in
      let ok = ref true in
      for x = 0 to Topology.as_count topo - 1 do
        match Propagate.best s x with
        | Some r ->
            if r.Route.path_len <> List.length r.Route.as_path then ok := false
        | None -> ()
      done;
      !ok)

let prop_received_never_loops =
  QCheck.Test.make ~name:"Adj-RIB-In never offers a looping route" ~count:25
    seed_gen (fun seed ->
      let topo = random_topo seed in
      let origin = pick_origin topo seed in
      let s = Propagate.run topo (Announce.default ~origin) in
      let ok = ref true in
      for x = 0 to Topology.as_count topo - 1 do
        List.iter
          (fun (r : Route.t) -> if List.mem x r.Route.as_path then ok := false)
          (Propagate.received s x)
      done;
      !ok)

let prop_withholding_monotone =
  QCheck.Test.make
    ~name:"withholding announcements never increases reachability" ~count:25
    (QCheck.pair seed_gen (QCheck.int_range 0 1000))
    (fun (seed, wseed) ->
      let topo = random_topo seed in
      let origin = pick_origin topo seed in
      let full = Propagate.run topo (Announce.default ~origin) in
      (* Withhold a random subset of the origin's sessions. *)
      let wrng = Sm.create wseed in
      let withheld =
        Oracle.neighbors topo origin
        |> List.filter_map (fun (nb : Oracle.neighbor) ->
               if Netsim_prng.Dist.bernoulli wrng ~p:0.5 then
                 Some nb.Oracle.link.Relation.id
               else None)
      in
      let partial =
        Propagate.run topo
          (Announce.withhold_links (Announce.default ~origin) withheld)
      in
      let count s =
        let c = ref 0 in
        for x = 0 to Topology.as_count topo - 1 do
          if Propagate.reachable s x then incr c
        done;
        !c
      in
      count partial <= count full)

let prop_prepending_preserves_reachability =
  QCheck.Test.make ~name:"prepending never breaks reachability" ~count:25
    (QCheck.pair seed_gen (QCheck.int_range 1 6))
    (fun (seed, n) ->
      let topo = random_topo seed in
      let origin = pick_origin topo seed in
      let metros =
        (Topology.asn topo origin).Asn.footprint |> Array.to_list
      in
      let config =
        Announce.prepend_at_metros (Announce.default ~origin) metros n
      in
      let s = Propagate.run topo config in
      let ok = ref true in
      for x = 0 to Topology.as_count topo - 1 do
        if not (Propagate.reachable s x) then ok := false
      done;
      !ok)

let prop_walk_matches_selected_path =
  QCheck.Test.make ~name:"walks follow the selected AS path" ~count:25
    seed_gen (fun seed ->
      let topo = random_topo seed in
      let origin = pick_origin topo seed in
      let s = Propagate.run topo (Announce.default ~origin) in
      let ok = ref true in
      for x = 0 to Topology.as_count topo - 1 do
        if x <> origin then begin
          match Walk.of_source s ~src:x with
          | None -> ok := false
          | Some w ->
              (* The walk's AS sequence is x followed by the selected
                 path minus the origin. *)
              let expected =
                x :: List.filter (fun a -> a <> origin) (Propagate.as_path s x)
              in
              if Walk.as_path w <> expected then ok := false
        end
      done;
      !ok)

let prop_link_failure_monotone =
  QCheck.Test.make ~name:"failing links never increases reachability"
    ~count:20
    (QCheck.pair seed_gen (QCheck.int_range 0 1000))
    (fun (seed, fseed) ->
      let topo = random_topo seed in
      let origin = pick_origin topo seed in
      let frng = Sm.create fseed in
      let to_fail =
        Array.to_list (Topology.links topo)
        |> List.filter_map (fun (l : Relation.link) ->
               if Netsim_prng.Dist.bernoulli frng ~p:0.1 then
                 Some l.Relation.id
               else None)
      in
      let failed = Topology.remove_links topo to_fail in
      let count t =
        let s = Propagate.run t (Announce.default ~origin) in
        let c = ref 0 in
        for x = 0 to Topology.as_count t - 1 do
          if Propagate.reachable s x then incr c
        done;
        !c
      in
      count failed <= count topo)

let prop_congestion_delay_nonnegative =
  QCheck.Test.make ~name:"congestion delays are non-negative" ~count:30
    (QCheck.pair seed_gen (QCheck.int_range 0 2000))
    (fun (seed, t) ->
      let topo = random_topo seed in
      let cong =
        Netsim_latency.Congestion.create Netsim_latency.Params.default topo
          ~seed
      in
      let time_min = float_of_int t in
      let ok = ref true in
      for link_id = 0 to min 30 (Topology.link_count topo - 1) do
        if
          Netsim_latency.Congestion.entity_delay_ms cong
            (Netsim_latency.Congestion.Link link_id) ~time_min
            ~episodes:(ref 0)
          < 0.
        then ok := false
      done;
      !ok)

let prop_timeline_pop_sorted =
  QCheck.Test.make
    ~name:"Timeline pops in (time, seq) order for arbitrary pushes" ~count:100
    QCheck.(list (int_range 0 50))
    (fun times ->
      let tl = Timeline.create () in
      List.iteri
        (fun i t -> Timeline.schedule tl ~at:(float_of_int t) i)
        times;
      let popped = Timeline.drain tl in
      (* Expected: stable sort by time of the pushes in push order —
         i.e. ties break by schedule sequence (FIFO). *)
      let expected =
        List.mapi (fun i t -> (float_of_int t, i)) times
        |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
      in
      popped = expected)

(* Remove link [l] and restore it, reconverging incrementally each
   way: both results must equal a full run, entry for entry. *)
let reconverge_round_trip topo config l =
  let state = Propagate.run topo config in
  let failed = Topology.remove_links topo [ l ] in
  let full = Propagate.run failed config in
  let incr_down, _ =
    Propagate.reconverge state ~topo:failed (Propagate.Link_removed l)
  in
  let restored, _ =
    Propagate.reconverge incr_down ~topo (Propagate.Link_added l)
  in
  Propagate.equal full incr_down
  && Propagate.equal state restored
  && Test_util.digest failed full = Test_util.digest failed incr_down
  && Test_util.digest topo state = Test_util.digest topo restored

let prop_reconverge_equals_full =
  QCheck.Test.make
    ~name:"incremental reconvergence equals full run on random link deltas"
    ~count:20
    QCheck.(triple seed_gen (int_range 0 10_000) (int_range 0 1000))
    (fun (seed, lseed, cseed) ->
      let topo = random_topo seed in
      let origin = pick_origin topo seed in
      let l = lseed mod Topology.link_count topo in
      reconverge_round_trip topo (Test_util.announce_shape topo origin cseed) l)

let prop_optimized_equals_reference =
  QCheck.Test.make
    ~name:
      "optimized propagation equals Set-based reference (entries, walks, \
       coverage)"
    ~count:25
    (QCheck.pair seed_gen (QCheck.int_range 0 1000))
    (fun (seed, cseed) ->
      let topo = random_topo seed in
      let origin = pick_origin topo seed in
      let config = Test_util.announce_shape topo origin cseed in
      let opt = Propagate.run topo config in
      let reference = Oracle.run topo config in
      let co = Catchment.compute opt and cr = Catchment.compute reference in
      Propagate.equal opt reference
      && Catchment.coverage co = Catchment.coverage cr
      && Catchment.sites co = Catchment.sites cr
      && List.for_all
           (fun m -> Catchment.clients_of_site co m = Catchment.clients_of_site cr m)
           (Catchment.sites co))

(* One config that mixes every announcement knob: prepends (1-3) and
   NO_EXPORT at random footprint metros, and a random share (0-80%) of
   the origin's sessions withheld, so the higher shares leave ASes
   unreachable. *)
let mixed_config topo origin cseed =
  let rng = Sm.create cseed in
  let coin p = Netsim_prng.Dist.bernoulli rng ~p in
  let metros () =
    List.filter
      (fun _ -> coin 0.4)
      (Array.to_list (Topology.asn topo origin).Asn.footprint)
  in
  let p_withhold = float_of_int (cseed mod 5) /. 5. in
  let withheld =
    List.filter_map
      (fun (nb : Oracle.neighbor) ->
        if coin p_withhold then Some nb.Oracle.link.Relation.id else None)
      (Oracle.neighbors topo origin)
  in
  let c = Announce.default ~origin in
  let c = Announce.prepend_at_metros c (metros ()) (1 + Sm.next_int rng 3) in
  let c = Announce.no_export_at_metros c (metros ()) in
  Announce.withhold_links c withheld

(* The allocation-free reads must say what [best] says, for every AS:
   the origin and unreachable ASes included. *)
let prop_packed_reads_match_best =
  QCheck.Test.make
    ~name:
      "path_len, next_hop, selected_class and reachable agree with best \
       (prepends, NO_EXPORT, withheld links)"
    ~count:40
    (QCheck.pair seed_gen (QCheck.int_range 0 10_000))
    (fun (seed, cseed) ->
      let topo = random_topo seed in
      let origin = cseed mod Topology.as_count topo in
      let s = Propagate.run topo (mixed_config topo origin cseed) in
      let ok = ref true in
      for x = 0 to Topology.as_count topo - 1 do
        let agrees =
          match Propagate.best s x with
          | None ->
              Propagate.path_len s x = -1
              && Propagate.next_hop s x = -1
              && Propagate.selected_class s x = None
              && Propagate.reachable s x = (x = origin)
          | Some r ->
              Propagate.path_len s x = r.Route.path_len
              && Propagate.next_hop s x = r.Route.next_hop
              && Propagate.selected_class s x = Some r.Route.klass
              && Propagate.reachable s x
        in
        if not agrees then ok := false
      done;
      !ok)

(* Removing the origin link that carries an AS's NO_EXPORT seed lets
   that AS export a route it learns elsewhere, which can improve its
   neighbours' routes: the removal must close over the live adjacency,
   not only over the old routes' parent pointers. *)
let test_reconverge_no_export_removal () =
  List.iter
    (fun (seed, l) ->
      let topo = random_topo seed in
      let origin = pick_origin topo seed in
      (* Shape 3: NO_EXPORT at the origin's first footprint metro. *)
      let config = Test_util.announce_shape topo origin 3 in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d, link %d" seed l)
        true
        (reconverge_round_trip topo config l))
    [ (2, 147); (33, 88); (59, 215) ]

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_full_reachability;
      prop_valley_free;
      prop_loop_free;
      prop_path_len_vs_as_path;
      prop_received_never_loops;
      prop_withholding_monotone;
      prop_prepending_preserves_reachability;
      prop_walk_matches_selected_path;
      prop_link_failure_monotone;
      prop_congestion_delay_nonnegative;
      prop_timeline_pop_sorted;
      prop_reconverge_equals_full;
      prop_optimized_equals_reference;
      prop_packed_reads_match_best;
    ]
  @ [
      Alcotest.test_case "reconverge: removing a NO_EXPORT seed" `Quick
        test_reconverge_no_export_removal;
    ]
