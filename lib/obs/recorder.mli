(** Flight recorder: bounded ring buffer of structured events.

    Sites call {!record} unconditionally; when disabled the cost is a
    single load + branch and no allocation.  Enabled runs flush to
    JSONL via {!to_jsonl} — one header line followed by one object per
    event, oldest first, with monotone [seq] numbers.  Events contain
    only deterministic simulation fields by default, so logs are
    byte-identical run-to-run and across [NETSIM_DOMAINS] settings.

    Environment knobs: [NETSIM_EVENTS] enables recording (the CLI's
    [--event-log] flag does the same), [NETSIM_EVENT_CAP] overrides
    the ring capacity (default 131072), [NETSIM_EVENT_NS] lets sites
    attach wall-clock timings (breaks byte-determinism; off by
    default). *)

type field =
  | I of string * int
  | F of string * float
  | S of string * string

val enabled : unit -> bool
val set_enabled : bool -> unit

val timing : unit -> bool
(** Whether sites may attach wall-clock fields ([NETSIM_EVENT_NS]). *)

val set_timing : bool -> unit

val capacity : unit -> int

val set_capacity : int -> unit
(** Resize the ring (clamped to >= 1).  Resets recorded events. *)

val record : kind:string -> field list -> unit
(** Append an event.  No-op when disabled.  Inside a {!capture} the
    event goes to the domain-local buffer instead of the ring. *)

val size : unit -> int
(** Events currently held in the ring. *)

val dropped : unit -> int
(** Events evicted because the ring was full. *)

val reset : unit -> unit

val schema : string
(** The event-log schema tag (["beatbgp.events/1"]), also reported by
    [beatbgp --version]. *)

val to_jsonl : unit -> string
(** Header line [{"schema":"beatbgp.events/1",...}] then one JSON
    object per event ([seq], [kind], then the event's fields). *)

(** {2 Deterministic parallel fan-in}

    The recorder half of {!Capture}: every pool task records into a
    {!capture} buffer and the calling domain appends the buffers in
    task-submission order, so sequence numbers and ring-drop behaviour
    are independent of the domain count. *)

type captured

val capture : (unit -> 'a) -> 'a * captured
val absorb : captured -> unit
