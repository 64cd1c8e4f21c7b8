module Topology = Netsim_topo.Topology
module Generator = Netsim_topo.Generator
module Asn = Netsim_topo.Asn
module Announce = Netsim_bgp.Announce
module Propagate = Netsim_bgp.Propagate
module Route = Netsim_bgp.Route

type params = {
  sp_scale : Generator.scale_params;
  sp_origins : int;
  sp_check : bool;
}

let default_params =
  { sp_scale = Generator.scale_params; sp_origins = 64; sp_check = false }

let small_params =
  { default_params with sp_scale = Generator.small_scale_params }

(* The unit of pool work, never of the result.  It stays 16 because the
   report prints it ("batch size 16") and that line is pinned by the
   scale golden and the benchmark's output digests. *)
let origins_per_task = 16

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
   over the domain pool in contiguous chunks of [origins_per_task]
   origins.  [f] sees each state inside its pool task and only its
   result leaves the task, so no state outlives it.  States are
   byte-identical for any domain count, so everything [run] prints is
   too. *)
let map p topo f =
  let configs =
    Array.map
      (fun origin -> Announce.default ~origin)
      (pick_origins topo p.sp_origins)
  in
  Netsim_par.Pool.map_batches ~batch:origins_per_task
    (Array.map (fun c -> f (Propagate.run topo c)))
    configs

(* One origin's share of the report: every figure [run] prints is a
   sum, minimum or maximum over these. *)
type summary = {
  origin : int;
  check_ok : bool;
  reach : int;
  len_sum : int;
  len_count : int;
  len_max : int;
  by_class : int array;  (** customer, peer, provider *)
}

(* Reads packed entries (no route, no AS path) and matches the class in
   place: at full scale this visits 64 x 74,516 (origin, AS) pairs. *)
let summarise ~check topo st =
  let n = Topology.as_count topo and origin = Propagate.origin st in
  let reach = ref 0 and len_sum = ref 0 and len_count = ref 0 in
  let len_max = ref 0 and by_class = [| 0; 0; 0 |] in
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
  {
    origin;
    check_ok =
      (not check)
      || Propagate.equal st (Propagate.run topo (Propagate.config st));
    reach = !reach;
    len_sum = !len_sum;
    len_count = !len_count;
    len_max = !len_max;
    by_class;
  }

let run p =
  match Generator.generate_scale p.sp_scale with
  | Error e -> Error e
  | Ok topo ->
      Netsim_obs.Span.with_ ~name:"core.scale_sweep" @@ fun () ->
      let n = Topology.as_count topo in
      let sums = map p topo (summarise ~check:p.sp_check topo) in
      let k = Array.length sums in
      match
        List.filter_map
          (fun s -> if s.check_ok then None else Some s.origin)
          (Array.to_list sums)
      with
      | _ :: _ as l ->
          Error
            (Printf.sprintf
               "differential check FAILED for %d origin(s): %s"
               (List.length l)
               (String.concat ", " (List.map string_of_int l)))
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
          pr "origins: %d stub prefixes, batch size %d\n" k origins_per_task;
          if p.sp_check then
            pr "differential check: OK (%d origins, batched == sequential)\n"
              k;
          (* Merge the per-origin summaries in origin order. *)
          let total f = Array.fold_left (fun a s -> a + f s) 0 sums in
          let extreme pick init f =
            Array.fold_left (fun a s -> pick a (f s)) init sums
          in
          let reach s = s.reach in
          pr "reachability: min %d  max %d  mean %.1f  (of %d ASes)\n"
            (extreme Stdlib.min max_int reach)
            (extreme Stdlib.max 0 reach)
            (float_of_int (total reach) /. float_of_int k)
            n;
          let routed = Stdlib.max 1 (total (fun s -> s.len_count)) in
          let pct i =
            100. *. float_of_int (total (fun s -> s.by_class.(i)))
            /. float_of_int routed
          in
          pr "path length: mean %.2f hops  max %d\n"
            (float_of_int (total (fun s -> s.len_sum)) /. float_of_int routed)
            (extreme Stdlib.max 0 (fun s -> s.len_max));
          pr "selected class: customer %.1f%%  peer %.1f%%  provider %.1f%%\n"
            (pct 0) (pct 1) (pct 2);
          Ok (Buffer.contents buf)
