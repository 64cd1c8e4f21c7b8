(** One observability capture per pool task.

    [run f] runs [f] with a fresh metrics registry, span tree and
    flight-recorder buffer ({!Metrics.capture}, {!Span.capture},
    {!Recorder.capture}) in the current domain, each only while its
    switch is on; {!absorb} merges them into the current domain's
    registry, tree and ring, or into an enclosing capture: counter
    sums and histogram buckets add, histogram summaries merge, span
    nodes add, events append.
    {!Netsim_par.Pool.map} runs every task under [run] and absorbs in
    submission order, so metrics, spans and event logs are
    byte-identical for any domain count. *)

type t

val empty : t
(** Holds nothing; what [run] returns with metrics and recorder off. *)

val run : (unit -> 'a) -> 'a * t
(** On exception every buffer is discarded and the exception
    re-raised. *)

val absorb : t -> unit
(** Recorder events first, then metrics, then spans. *)
