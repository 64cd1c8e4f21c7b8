module Topology = Netsim_topo.Topology
module Relation = Netsim_topo.Relation
module Metrics = Netsim_obs.Metrics
module Recorder = Netsim_obs.Recorder

(* Content-addressed memoization of [Propagate.run].  The key is exact
   — no lossy hashing — so a hit can never return the state of a
   different problem:

   - the topology {e generation stamp}: unique per constructed
     topology value (bumped by [remove_links] on the dynamics
     reconverge path), so any structural change misses;
   - the origin AS id;
   - the announcement actions on the origin's own sessions, sorted by
     link id.  Propagation depends on the policy only through these
     ([Announce.action_on] is silent off-origin), so two configs that
     agree here are the same problem even if they are different
     closures. *)

type key = {
  k_gen : int;
  k_origin : int;
  k_actions : (int * bool * int * bool) list;
      (** (link id, export, prepend, no_export), sorted by link id. *)
}

let key_of topo (config : Announce.t) =
  let origin = config.Announce.origin in
  let actions =
    Topology.fold_row topo origin
      (fun pn acc ->
        let id = Topology.pn_link pn in
        let a = Announce.action_on config (Topology.link topo id) in
        (id, a.Announce.export, a.Announce.prepend, a.Announce.no_export)
        :: acc)
      []
    |> List.sort compare
  in
  { k_gen = Topology.generation topo; k_origin = origin; k_actions = actions }

(* ---- configuration --------------------------------------------------- *)

let enabled_ref =
  ref
    (match Sys.getenv_opt "NETSIM_RIB_CACHE" with
    | Some ("0" | "false" | "off") -> false
    | None | Some _ -> true)

let enabled () = !enabled_ref
let set_enabled b = enabled_ref := b

let default_capacity = 64

let capacity_ref =
  ref
    (match Sys.getenv_opt "NETSIM_RIB_CACHE_SIZE" with
    | None | Some "" -> default_capacity
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n > 0 -> n
        | Some _ | None ->
            Printf.eprintf
              "netsim: ignoring invalid NETSIM_RIB_CACHE_SIZE=%S\n%!" s;
            default_capacity))

let capacity () = !capacity_ref
let set_capacity n = capacity_ref := Stdlib.max 1 n

(* ---- per-domain shards ----------------------------------------------- *)

(* The cache is never shared between domains: every domain (and every
   pool task, via [capture]) works against its own shard, and
   [Netsim_par.Pool.map] merges task shards back in submission order —
   the same capture/replay discipline the observability layer uses.
   Because the per-task hit/miss sequence depends only on the task's
   own lookups, hit/miss counters (and of course the returned states,
   which are bit-identical whether cached or recomputed) are the same
   for any domain count. *)

type node = { n_state : Propagate.state; mutable n_used : int }

type shard = {
  tbl : (key, node) Hashtbl.t;
  mutable tick : int;  (** recency clock; each entry's [n_used] is unique *)
  mutable s_hits : int;
  mutable s_misses : int;
}

let fresh_shard () =
  { tbl = Hashtbl.create 64; tick = 0; s_hits = 0; s_misses = 0 }

let shard_key : shard Domain.DLS.key = Domain.DLS.new_key fresh_shard
let current_shard () = Domain.DLS.get shard_key

let capture shard f =
  let saved = current_shard () in
  Domain.DLS.set shard_key shard;
  match f () with
  | v ->
      Domain.DLS.set shard_key saved;
      v
  | exception e ->
      Domain.DLS.set shard_key saved;
      raise e

(* Insert under the LRU bound.  Ticks are unique, so the victim is
   unique and eviction order does not depend on hash-table iteration
   order. *)
let insert shard key st =
  shard.tick <- shard.tick + 1;
  if
    (not (Hashtbl.mem shard.tbl key))
    && Hashtbl.length shard.tbl >= capacity ()
  then begin
    let victim = ref None in
    Hashtbl.iter
      (fun k n ->
        match !victim with
        | Some (_, u) when u <= n.n_used -> ()
        | Some _ | None -> victim := Some (k, n.n_used))
      shard.tbl;
    match !victim with
    | Some (k, _) ->
        Hashtbl.remove shard.tbl k;
        (* Event logs carry the victim's origin, not its generation
           stamp: stamps come from a global atomic and are
           nondeterministic when topologies are built inside parallel
           pool tasks. *)
        if Recorder.enabled () then
          Recorder.record ~kind:"bgp.rib_cache.evict"
            [ Recorder.I ("origin", k.k_origin) ]
    | None -> ()
  end;
  Hashtbl.replace shard.tbl key { n_state = st; n_used = shard.tick }

let absorb task_shard =
  let parent = current_shard () in
  parent.s_hits <- parent.s_hits + task_shard.s_hits;
  parent.s_misses <- parent.s_misses + task_shard.s_misses;
  (* Replay the task's surviving entries oldest-first so the parent's
     recency order extends the task's. *)
  Hashtbl.fold (fun k n acc -> (n.n_used, k, n.n_state) :: acc) task_shard.tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> Stdlib.compare a b)
  |> List.iter (fun (_, k, st) -> insert parent k st)

(* ---- the memoized entry point ---------------------------------------- *)

let c_hits = Metrics.counter "bgp.rib_cache.hits"
let c_misses = Metrics.counter "bgp.rib_cache.misses"

let hit_node shard key node =
  shard.tick <- shard.tick + 1;
  node.n_used <- shard.tick;
  shard.s_hits <- shard.s_hits + 1;
  if Metrics.enabled () then Metrics.incr c_hits;
  if Recorder.enabled () then
    Recorder.record ~kind:"bgp.rib_cache.hit"
      [ Recorder.I ("origin", key.k_origin) ];
  node.n_state

let miss_state shard key st =
  shard.s_misses <- shard.s_misses + 1;
  if Metrics.enabled () then Metrics.incr c_misses;
  if Recorder.enabled () then
    Recorder.record ~kind:"bgp.rib_cache.miss"
      [ Recorder.I ("origin", key.k_origin) ];
  insert shard key st;
  st

(* One lookup's full bookkeeping.  A cached state lacking the
   provenance the caller wants is regenerated (counted as a miss) and
   the entry upgraded, so subsequent explains of the same problem
   hit. *)
let lookup shard key ~want ~compute =
  match Hashtbl.find_opt shard.tbl key with
  | Some node when (not want) || Propagate.has_provenance node.n_state ->
      hit_node shard key node
  | Some _ | None -> miss_state shard key (compute ())

let run ?provenance topo config =
  (* Resolve the provenance request here so the cached and uncached
     paths agree on what NETSIM_PROVENANCE means. *)
  let want =
    match provenance with
    | Some b -> b
    | None -> Netsim_obs.Provenance.enabled ()
  in
  if not !enabled_ref then Propagate.run ~provenance:want topo config
  else
    let shard = current_shard () in
    let key = key_of topo config in
    lookup shard key ~want ~compute:(fun () ->
        Propagate.run ~provenance:want topo config)

(* Batched lookups: compute every key the shard is missing in one
   [Propagate.run_batch], then replay the configs in order against the
   real cache.  The replay does byte-identical bookkeeping to a
   sequential loop of [run] — same hit/miss counts and events, same
   recency ticks, same insert and eviction order — because each miss
   merely takes its state from the batch instead of propagating again.
   Two corner cases keep the equivalence exact:

   - duplicate keys inside the batch are computed once; the second
     occurrence hits the entry the replay just inserted, as it would
     sequentially;
   - a key this replay's own inserts evict before its turn (capacity
     smaller than the batch) is recomputed solo, as [run] would. *)
let run_batch ?provenance topo configs =
  let want =
    match provenance with
    | Some b -> b
    | None -> Netsim_obs.Provenance.enabled ()
  in
  if not !enabled_ref then Propagate.run_batch ~provenance:want topo configs
  else begin
    let shard = current_shard () in
    let keys = Array.map (fun c -> key_of topo c) configs in
    (* Unique keys needing compute at batch start: absent, or present
       without the provenance the caller wants. *)
    let pending = Hashtbl.create 16 in
    let to_compute = ref [] in
    Array.iteri
      (fun i key ->
        if not (Hashtbl.mem pending key) then
          match Hashtbl.find_opt shard.tbl key with
          | Some node when (not want) || Propagate.has_provenance node.n_state
            ->
              ()
          | Some _ | None ->
              Hashtbl.add pending key ();
              to_compute := i :: !to_compute)
      keys;
    let to_compute = Array.of_list (List.rev !to_compute) in
    let computed =
      if Array.length to_compute = 0 then [||]
      else
        Propagate.run_batch ~provenance:want topo
          (Array.map (fun i -> configs.(i)) to_compute)
    in
    let computed_tbl = Hashtbl.create 16 in
    Array.iteri
      (fun j i -> Hashtbl.replace computed_tbl keys.(i) computed.(j))
      to_compute;
    Array.mapi
      (fun i (config : Announce.t) ->
        let key = keys.(i) in
        lookup shard key ~want ~compute:(fun () ->
            match Hashtbl.find_opt computed_tbl key with
            | Some st -> st
            | None -> Propagate.run ~provenance:want topo config))
      configs
  end

(* ---- introspection (tests, bench) ------------------------------------ *)

let size () = Hashtbl.length (current_shard ()).tbl
let hits () = (current_shard ()).s_hits
let misses () = (current_shard ()).s_misses

let clear () =
  let shard = current_shard () in
  Hashtbl.reset shard.tbl;
  shard.tick <- 0;
  shard.s_hits <- 0;
  shard.s_misses <- 0
