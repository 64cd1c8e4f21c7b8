(** Fixed-size domain pool with deterministic fan-out/fan-in.

    [map f arr] shards the indexed work list [arr] across OCaml 5
    domains and places each result at its submission index, so the
    output array is byte-identical to [Array.map f arr] regardless of
    how many domains run or how the scheduler interleaves them —
    provided [f] itself is deterministic (every simulator hot loop
    handed to the pool is: one Gao–Rexford propagation per prefix, one
    full figure pipeline per seed).

    Every task runs the same way, at any domain count and nested or
    not: inside one {!Netsim_obs.Capture.run} and against a fresh
    {!Netsim_bgp.Rib_cache} shard, both absorbed in submission order
    after the join (counters sum, gauges keep the last write,
    observations and recorder events replay in order, span subtrees
    re-parent under the span open at the fan-out point).  So metrics
    JSON, span shapes and event logs are byte-identical for any domain
    count; only span wall-clock times vary, as they do serially.

    The pool size comes from [NETSIM_DOMAINS] (default:
    {!Domain.recommended_domain_count}).  Only who drains a job
    varies: the pool, with more than one domain; otherwise the calling
    domain alone — at one domain, inside a task (a nested [map]), or
    when another non-worker domain holds the pool (the serve daemon's
    listener).  Composed layers therefore cannot oversubscribe or
    deadlock.  Workers are spawned lazily, reused, and joined via
    [at_exit]. *)

val domain_count : unit -> int
(** Current pool size (>= 1), from [NETSIM_DOMAINS] or the hardware
    default, clamped to [1, 64]. *)

val set_domain_count : int -> unit
(** Override the pool size (clamped to [1, 64]).  Takes effect on the
    next [map]; already-spawned workers are kept for reuse. *)

val map : ('a -> 'b) -> 'a array -> 'b array
(** Deterministic parallel [Array.map].  Every task runs, even after
    one raises; then the lowest-index exception is re-raised.  The
    results and observability of the tasks before it are merged first;
    the failing task's partial buffers and everything after it are
    dropped.  The rule is the same at every domain count. *)

val map_list : ('a -> 'b) -> 'a list -> 'b list
(** [map] over a list, preserving order. *)

val map_batches : batch:int -> ('a array -> 'b array) -> 'a array -> 'b array
(** [map_batches ~batch f arr] cuts [arr] into contiguous chunks of
    [batch] items (the last possibly shorter), runs [f] on each chunk
    as one pool task, and concatenates the per-chunk results — the
    scale sweep's fan-out, one task per chunk of origins, under [map]'s
    per-task discipline.  [f] must return one result per input item,
    in order.  @raise Invalid_argument if [batch <= 0]
    or a chunk result length disagrees. *)
