module Topology = Netsim_topo.Topology
module Generator = Netsim_topo.Generator
module Asn = Netsim_topo.Asn
module Announce = Netsim_bgp.Announce
module Propagate = Netsim_bgp.Propagate
module Rib_cache = Netsim_bgp.Rib_cache
module Route = Netsim_bgp.Route

type params = {
  sp_scale : Generator.scale_params;
  sp_origins : int;
  sp_batch : int;
  sp_check : bool;
}

let default_params =
  { sp_scale = Generator.scale_params; sp_origins = 64; sp_batch = 16;
    sp_check = false }

let small_params =
  { default_params with sp_scale = Generator.small_scale_params }

(* Origins are stub ASes spread evenly over the id range: stub ids grow
   with creation order, which the generator draws from the population
   distribution, so an even stride samples the whole planet rather
   than one metro's burst. *)
let pick_origins topo k =
  let stubs = Array.of_list (Topology.by_klass topo Asn.Stub) in
  let pool = if Array.length stubs > 0 then stubs
    else Array.init (Topology.as_count topo) Fun.id in
  let n = Array.length pool in
  let k = Stdlib.max 1 (Stdlib.min k n) in
  Array.init k (fun i -> pool.(i * n / k))

(* The experiment's hot path: one propagation per origin, fanned out
   over the domain pool in contiguous chunks of [sp_batch] origins.
   States are byte-identical for any domain count and cache setting, so
   everything [run] prints is too. *)
let states p topo =
  let configs =
    Array.map
      (fun origin -> Announce.default ~origin)
      (pick_origins topo p.sp_origins)
  in
  Netsim_par.Pool.map_batches ~batch:(Stdlib.max 1 p.sp_batch)
    (fun chunk -> Rib_cache.run_batch topo chunk)
    configs

let run p =
  match Generator.generate_scale p.sp_scale with
  | Error e -> Error e
  | Ok topo ->
      Netsim_obs.Span.with_ ~name:"core.scale_sweep" @@ fun () ->
      let n = Topology.as_count topo in
      let states = states p topo in
      let k = Array.length states in
      let check_failures = ref [] in
      if p.sp_check then
        Array.iter
          (fun st ->
            let solo = Propagate.run topo (Propagate.config st) in
            if not (Propagate.equal st solo) then
              check_failures := Propagate.origin st :: !check_failures)
          states;
      match !check_failures with
      | _ :: _ as l ->
          Error
            (Printf.sprintf
               "differential check FAILED for %d origin(s): %s"
               (List.length l)
               (String.concat ", "
                  (List.rev_map string_of_int l)))
      | [] ->
          let buf = Buffer.create 1024 in
          let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
          pr "=== Internet-scale batched propagation ===\n";
          pr "topology: %d ASes, %d links (seed %d)\n" n
            (Topology.link_count topo) p.sp_scale.Generator.sc_seed;
          List.iter
            (fun klass ->
              pr "  %-8s %d\n"
                (Asn.klass_to_string klass)
                (List.length (Topology.by_klass topo klass)))
            [ Asn.Tier1; Asn.Transit; Asn.Eyeball; Asn.Stub ];
          pr "origins: %d stub prefixes, batch size %d\n" k
            (Stdlib.max 1 p.sp_batch);
          if p.sp_check then
            pr "differential check: OK (%d origins, batched == sequential)\n"
              k;
          (* Aggregate routing statistics over all (origin, AS) pairs;
             derived from the states alone, so deterministic for any
             domain count / cache setting.  This loop visits 64 x 74,516
             pairs at full scale, so it reads packed entries (no route,
             no AS path) and matches the class in place rather than
             paying a cross-module call per pair. *)
          let reach_min = ref max_int and reach_max = ref 0 in
          let reach_total = ref 0 in
          let len_sum = ref 0 and len_count = ref 0 and len_max = ref 0 in
          let by_class = [| 0; 0; 0 |] in
          Array.iter
            (fun st ->
              let reach = ref 0 and origin = Propagate.origin st in
              for x = 0 to n - 1 do
                match Propagate.selected_class st x with
                | None -> if x = origin then incr reach
                | Some c ->
                    incr reach;
                    let len = Propagate.path_len st x in
                    len_sum := !len_sum + len;
                    if len > !len_max then len_max := len;
                    incr len_count;
                    let i =
                      match c with
                      | Route.Customer -> 0
                      | Route.Peer -> 1
                      | Route.Provider -> 2
                    in
                    by_class.(i) <- by_class.(i) + 1
              done;
              reach_min := Stdlib.min !reach_min !reach;
              reach_max := Stdlib.max !reach_max !reach;
              reach_total := !reach_total + !reach)
            states;
          pr "reachability: min %d  max %d  mean %.1f  (of %d ASes)\n"
            !reach_min !reach_max
            (float_of_int !reach_total /. float_of_int k)
            n;
          let routed = Stdlib.max 1 !len_count in
          pr "path length: mean %.2f hops  max %d\n"
            (float_of_int !len_sum /. float_of_int routed)
            !len_max;
          pr "selected class: customer %.1f%%  peer %.1f%%  provider %.1f%%\n"
            (100. *. float_of_int by_class.(0) /. float_of_int routed)
            (100. *. float_of_int by_class.(1) /. float_of_int routed)
            (100. *. float_of_int by_class.(2) /. float_of_int routed);
          Ok (Buffer.contents buf)
