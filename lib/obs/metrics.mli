(** Metrics registry: named counters and log-bucketed latency
    histograms.

    All record sites ([incr], [add], [observe]) check a single
    [enabled] flag and are no-ops when it is off (the default), so
    instrumentation can stay in hot paths permanently.  The flag is
    seeded from the [NETSIM_TRACE] environment variable (any value
    other than empty, ["0"] or ["false"] enables it) and toggled by
    [set_enabled] — the CLI's [--trace] / [--metrics-out] flags do
    that.

    Metric handles are interned by name: [counter "x"] returns the same
    dense id from any domain, so modules declare their metrics at top
    level and a record site only indexes an array.

    One registry type holds a sum per counter and, per histogram, its
    bucket counts and a {!Netsim_stats.Summary.t}.  The global registry
    is owned by the main domain.  {!Netsim_par.Pool} runs every task
    inside {!Capture.run}, which (through {!capture}) points every
    record site in that domain at a fresh registry; the pool then
    absorbs the task registries in submission order.  Sums and buckets
    add and summaries merge, at the same points of the same sequence
    for any domain count, so the merged registry — and its JSON — is
    byte-identical for any domain count.  A histogram's [mean] and
    [total] are merged floats, which can differ in the low bits from
    one summary fed every sample in turn. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Find-or-create the counter registered under this name. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int
(** The value in the current registry: inside a {!capture}, only the
    capture's own increments. *)

(** {1 Histograms}

    Log-bucketed (5 buckets per decade over [1e-3, 1e7), plus
    underflow/overflow); quantiles are estimated from bucket geometric
    midpoints via {!Netsim_stats.Quantile.weighted_quantile}, so the
    relative error is bounded by the bucket width (~1.58x). *)

type histogram

val histogram : string -> histogram
val observe : histogram -> float -> unit
val histogram_count : histogram -> int
(** [histogram_count], [histogram_summary] and [histogram_quantile]
    read the current registry, like {!counter_value}. *)

val histogram_summary : histogram -> Netsim_stats.Summary.t
val histogram_quantile : histogram -> float -> float
(** [nan] when the histogram is empty. *)

(** {1 Snapshots} — used by {!Span} to attribute counter deltas. *)

type snapshot

val counter_snapshot : unit -> snapshot
val counter_deltas : snapshot -> (string * int) list
(** Counters that changed since the snapshot, sorted by name.  Both
    read the current registry, so span counter deltas work the same
    inside a {!capture}. *)

(** {1 Capture} — a registry per pool task; the metrics half of
    {!Capture}. *)

type captured
(** A registry of its own: counter sums and histogram states. *)

val capture : (unit -> 'a) -> 'a * captured
(** [capture f] runs [f] with every record site in the current domain
    writing a fresh registry and returns it alongside [f]'s result.
    The enclosing registry is untouched.  On exception the registry is
    discarded and the exception re-raised.  Captures nest. *)

val absorb : captured -> unit
(** Merge a captured registry into the current one (the global
    registry, or an enclosing capture): counter sums and bucket counts
    add, and summaries merge with {!Netsim_stats.Summary.merge}.
    Absorbing per-task registries in submission order leaves every
    counter, bucket, count, min and max as a sequential run would. *)

(** {1 Reporting} *)

val counter_rows : unit -> (string * int) list
(** Every registered counter with its global value, sorted by name;
    the histogram readers below likewise list every registered
    histogram, observed or not. *)

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

(** {1 Runtime samples}

    Process-level samples (GC stats, pool utilization) that depend on
    wall clock and domain count.  Kept out of {!to_json} so the merged
    deterministic metrics stay byte-identical across runs; read them
    with {!runtime_rows} (exporters, human-readable report). *)

val set_runtime : string -> float -> unit
(** No-op when disabled or inside a {!capture} (worker domains never
    write runtime samples). *)

val sample_gc : unit -> unit
(** Sample [Gc.quick_stat] into the four [gc.*] runtime samples; same
    no-op rule as {!set_runtime}. *)

val runtime_rows : unit -> (string * float) list

val reset : unit -> unit
(** Zero the global registry (names stay registered); drop all
    runtime samples. *)

val to_json : unit -> Jsonx.t
