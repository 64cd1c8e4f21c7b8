(** Nested wall-clock trace spans.

    [with_ ~name f] times [f] and records it as a span under the
    currently open span (or at the root).  When tracing is disabled
    ({!Metrics.enabled} is false) it is exactly [f ()].  Repeated spans
    with the same name under the same parent merge into one node (call
    count + accumulated time), so per-prefix loops stay readable.

    Each span also records the delta of every registered counter
    between entry and exit (inclusive of descendants). *)

val with_ : name:string -> (unit -> 'a) -> 'a
(** Exception-safe: the span is closed even if [f] raises. *)

(** Immutable view of the recorded tree. *)
type info = {
  i_name : string;
  i_calls : int;
  i_total_ms : float;  (** wall clock, inclusive of children *)
  i_self_ms : float;  (** [total] minus the children's total, >= 0 *)
  i_counters : (string * int) list;  (** counter deltas, sorted by name *)
  i_children : info list;  (** first-seen order *)
}

val tree : unit -> info list
val span_names : unit -> string list
(** Distinct span names, preorder. *)

val render : unit -> string
(** Indented text table: span, calls, total ms, self ms, counter
    deltas. *)

val to_json : unit -> Jsonx.t
val reset : unit -> unit

(** {1 Capture} — domain-local trees for the parallel pool; the span
    half of {!Capture}.

    The span tree and open-span stack are per-domain, so concurrent
    workers never race.  {!capture} runs a task against a fresh
    scratch tree; {!absorb} re-parents the captured subtree under the
    currently open span (the fan-out point), merging same-name nodes
    exactly as sequential execution would have, and takes the GC
    sample ({!Metrics.sample_gc}) that the captured span closes
    skipped. *)

type captured

val capture : (unit -> 'a) -> 'a * captured
(** Exception-safe; the surrounding tree/stack are restored either way
    (the partial capture is discarded on exception). *)

val absorb : captured -> unit
