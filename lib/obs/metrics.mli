(** Global metrics registry: named counters, gauges and log-bucketed
    latency histograms.

    All record sites ([incr], [add], [set], [observe]) check a single
    [enabled] flag and are no-ops when it is off (the default), so
    instrumentation can stay in hot paths permanently.  The flag is
    seeded from the [NETSIM_TRACE] environment variable (any value
    other than empty, ["0"] or ["false"] enables it) and toggled by
    [set_enabled] — the CLI's [--trace] / [--metrics-out] flags do
    that.

    Metric objects are interned by name: [counter "x"] returns the same
    counter everywhere, so modules declare their metrics at top level
    and pay only the flag check per event.

    The registry is owned by the main domain.  {!Netsim_par.Pool} runs
    every task inside {!Capture.run}, which (through {!capture})
    redirects every record site in that domain to a private buffer;
    the pool then absorbs the buffers in task-submission order.  A
    buffer holds one sum per counter name and an ordered log of gauge
    writes and histogram observations, so the merged registry — and
    its JSON — is byte-identical for any domain count. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Find-or-create the counter registered under this name. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms}

    Log-bucketed (5 buckets per decade over [1e-3, 1e7), plus
    underflow/overflow); quantiles are estimated from bucket geometric
    midpoints via {!Netsim_stats.Quantile.weighted_quantile}, so the
    relative error is bounded by the bucket width (~1.58x). *)

type histogram

val histogram : string -> histogram
val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_summary : histogram -> Netsim_stats.Summary.t
val histogram_quantile : histogram -> float -> float
(** [nan] when the histogram is empty. *)

(** {1 Snapshots} — used by {!Span} to attribute counter deltas. *)

type snapshot

val counter_snapshot : unit -> snapshot
val counter_deltas : snapshot -> (string * int) list
(** Counters that changed since the snapshot, sorted by name.  Inside
    a {!capture}, both operate on the capture buffer, so span counter
    deltas keep working in pool workers. *)

(** {1 Capture} — domain-local buffering for the parallel pool; the
    metrics half of {!Capture}. *)

type captured
(** One sum per counter name, plus gauge writes and histogram
    observations in the order they happened. *)

val capture : (unit -> 'a) -> 'a * captured
(** [capture f] runs [f] with every record site in the current domain
    redirected to a fresh buffer and returns the buffer alongside
    [f]'s result.  The global registry is untouched.  On exception the
    buffer is discarded and the exception re-raised.  Captures nest
    (the inner buffer simply shadows the outer for the duration). *)

val absorb : captured -> unit
(** Merge a buffer into the registry (or the enclosing capture): sums
    add, unseen names register, gauge writes and observations replay
    in order.  Absorbing per-task buffers in submission order leaves
    every value as a sequential run would (counters may register in
    another order; every reader sorts by name). *)

(** {1 Reporting} *)

val counter_rows : unit -> (string * int) list
val gauge_rows : unit -> (string * float) list

type hist_row = {
  hr_name : string;
  hr_summary : Netsim_stats.Summary.t;
  hr_p50 : float;
  hr_p90 : float;
  hr_p99 : float;
}

val histogram_rows : unit -> hist_row list

val histogram_export : unit -> (string * (float * int) list * Netsim_stats.Summary.t) list
(** Per-histogram raw bucket contents for exporters: [(name, (upper
    bound, count) per bucket, summary)], sorted by name.  The last
    bucket's bound is [infinity]. *)

(** {1 Runtime gauges}

    Process-level samples (GC stats, pool utilization) that depend on
    wall clock and domain count.  Kept out of {!to_json} so the merged
    deterministic metrics stay byte-identical across runs; read them
    with {!runtime_rows} (exporters, human-readable report). *)

val set_runtime : string -> float -> unit
(** No-op when disabled or inside a {!capture} (worker domains never
    write runtime samples). *)

val sample_gc : unit -> unit
(** Sample [Gc.quick_stat] into the four [gc.*] runtime gauges; same
    no-op rule as {!set_runtime}. *)

val runtime_rows : unit -> (string * float) list

val reset : unit -> unit
(** Zero every registered metric (objects stay registered); drop all
    runtime gauges. *)

val to_json : unit -> Jsonx.t
