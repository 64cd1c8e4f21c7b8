(** One observability capture per pool task.

    [run f] runs [f] with the metrics registry, the span tree and the
    flight recorder ({!Metrics.capture}, {!Span.capture},
    {!Recorder.capture}) redirected to fresh domain-local buffers, each
    only while its switch is on; {!absorb} merges them into the current
    domain's registry, tree and ring, or into an enclosing capture.
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
