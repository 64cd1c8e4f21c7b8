(** Fixed-size domain pool with deterministic fan-out/fan-in.

    [map f arr] shards the indexed work list [arr] across OCaml 5
    domains and places each result at its submission index, so the
    output array is byte-identical to [Array.map f arr] regardless of
    how many domains run or how the scheduler interleaves them —
    provided [f] itself is deterministic (every simulator hot loop
    handed to the pool is: one Gao–Rexford propagation per prefix, one
    full figure pipeline per seed).

    Observability stays deterministic too: when tracing is enabled,
    each task runs inside {!Netsim_obs.Metrics.capture} /
    {!Netsim_obs.Span.capture}, and the per-task buffers are absorbed
    into the global registry in submission order after the join —
    counters sum, gauges keep the last (submission-order) write,
    histogram observations replay one by one, and span subtrees
    re-parent under the span open at the fan-out point.  Replay
    reproduces the exact record-call sequence of a sequential run, so
    metrics JSON is byte-identical for any domain count (span
    wall-clock times vary run to run, exactly as they do serially).

    The pool size comes from the [NETSIM_DOMAINS] environment variable
    (default: {!Domain.recommended_domain_count}).  With one domain,
    [map] is literally [Array.map] — the exact pre-pool code path,
    with no capture overhead.  Nested [map] calls from inside a worker
    run sequentially rather than re-entering the pool, so composed
    layers (a figure fan-out whose figures shard their own
    propagations) cannot oversubscribe or deadlock.  Likewise, if two
    non-worker domains call [map] at the same time (the serve daemon's
    listener domain vs the main domain), one claims the pool and the
    other degrades to the sequential path — results are identical
    either way, only the scheduling differs.

    Worker domains are spawned lazily on first parallel use, reused
    across calls, and joined via [at_exit]. *)

val domain_count : unit -> int
(** Current pool size (>= 1), from [NETSIM_DOMAINS] or the hardware
    default, clamped to [1, 64]. *)

val set_domain_count : int -> unit
(** Override the pool size (clamped to [1, 64]).  Takes effect on the
    next [map]; already-spawned workers are kept for reuse. *)

val in_worker : unit -> bool
(** True while executing inside a pool task (where nested maps run
    sequentially). *)

val map : ('a -> 'b) -> 'a array -> 'b array
(** Deterministic parallel [Array.map].  If a task raises, the
    lowest-index exception is re-raised after all tasks settle (obs
    buffers of the tasks before it are still absorbed, mirroring the
    partial state a sequential run would have left). *)

val mapi : (int -> 'a -> 'b) -> 'a array -> 'b array

val map_list : ('a -> 'b) -> 'a list -> 'b list
(** [map] over a list, preserving order. *)

val map_batches : batch:int -> ('a array -> 'b array) -> 'a array -> 'b array
(** [map_batches ~batch f arr] cuts [arr] into contiguous chunks of
    [batch] items (the last possibly shorter), runs [f] on each chunk
    as one pool task, and concatenates the per-chunk results — the
    scale sweep's fan-out, one task per chunk of origins.  Each chunk
    gets [map]'s per-task observability and RIB-cache shard
    capture/absorb, so results and counters are byte-identical at any
    domain count.  [f] must return one result
    per input item, in order.  @raise Invalid_argument if [batch <= 0]
    or a chunk result length disagrees. *)
