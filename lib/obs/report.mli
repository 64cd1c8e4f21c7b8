(** Combined human-readable and JSON reports over {!Metrics} and
    {!Span}. *)

val metrics_table : unit -> string
(** Counters, histogram summaries (one line each, built on
    {!Netsim_stats.Summary.one_line}) and runtime samples. *)

val render : unit -> string
(** Trace tree followed by the metrics table. *)

val to_json : unit -> Jsonx.t
(** [{"metrics": {...}, "trace": [...]}] *)

val write_text : string -> string -> unit
(** [write_text path content] writes [content] to [path], raising
    [Failure] with a clear message (rather than a raw [Sys_error])
    when the target directory does not exist or the file cannot be
    opened.  All CLI telemetry outputs funnel through this. *)

val write_json : string -> unit
(** Write {!to_json} to a file, newline-terminated. *)

val reset : unit -> unit
(** Reset the metrics registry, the span tree, and the flight
    recorder. *)
