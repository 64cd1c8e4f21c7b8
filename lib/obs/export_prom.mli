(** Prometheus text-exposition (v0.0.4) export of the metrics
    registry: HELP/TYPE lines for every metric, [_total]-suffixed
    counters, runtime samples ({!Metrics.runtime_rows}) as gauges,
    and cumulative
    [_bucket]/[_sum]/[_count] histogram triples.  Names are sanitized
    to [[a-zA-Z0-9_:]] and prefixed ["netsim_"]. *)

val sanitize : string -> string
(** Map a registry name to its Prometheus name (prefix + character
    sanitization, no [_total] suffix). *)

val to_string : unit -> string

val write : string -> unit
(** Render to a file via {!Report.write_text} (clear error on a
    missing directory). *)
