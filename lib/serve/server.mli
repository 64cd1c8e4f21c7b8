(** The warm-RIB query daemon.

    A server owns a dynamics {!Netsim_dynamics.Engine} whose tracked
    prefixes (the provider's anycast prefix plus the first [track]
    client-AS prefixes) stay continuously converged, and answers
    {!Protocol} queries against that warm state.  Between request
    batches it applies the scheduled churn timeline incrementally —
    every [batch] requests the engine advances [batch_minutes] of
    simulated time, so responses are a deterministic function of the
    seed and the request sequence (never of wall clock).

    A server is built either from a seed ({!build}, the scenario
    construction path) or from a binary {!Snapshot} ({!of_snapshot}).
    Both produce byte-identical responses to the same request stream:
    the snapshot stores the exact routing tables, pending timeline and
    congestion overlays, and everything else (congestion model,
    batching) is rebuilt deterministically from the stored seed.

    {2 Concurrency model}

    The server executes many client sessions at once without giving up
    determinism.  Each request is split into a {e plan} step — runs on
    the coordinating domain, in request order, and performs all shared
    mutable-state traffic (parsing, counters, RIB-cache lookups) — and
    a pure {e run} thunk.  A scheduling round ingests pending lines
    from every session, fans the planned read-only thunks over the
    {!Netsim_par.Pool} domains in one batch, then executes
    write-barrier verbs (ADVANCE, SNAPSHOT, QUIT) and churn
    batch-boundary advances on the coordinating domain with no reads
    in flight.  Per-session query counters live in the session, so
    every client observes exactly the responses it would observe
    served alone — byte-for-byte, at any domain count.  See
    doc/serving.md. *)

type config = {
  seed : int;
  base_params : Netsim_topo.Generator.params;  (** Base-Internet shape. *)
  n_prefixes : int;
  pop_count : int;  (** Provider PoP metros to deploy. *)
  track : int;  (** Client-AS prefixes kept warm in the engine. *)
  churn : bool;  (** Schedule a flap + congestion-burst timeline. *)
  churn_days : int;  (** Horizon of the churn scripts. *)
  batch : int;  (** Requests per engine advance (0 = never advance). *)
  batch_minutes : float;  (** Simulated minutes per batch advance. *)
}

val default_config : config
(** Default scenario sizes (seed 42, 320 prefixes, 40 PoPs). *)

val small_config : config
(** Test sizes (seed 7, 60 prefixes, 12 PoPs) — used by [--small],
    [make verify] and the test suite. *)

type t

val build : config -> t
(** Construct the provider scenario from the seed and start tracking. *)

val of_snapshot : config -> Snapshot.t -> (t, string) result
(** Resume from a loaded snapshot: restore the engine (base topology,
    failed links, clock), install the stored routing tables without
    repropagating, re-schedule the pending timeline and re-apply the
    congestion overlays.  [Error] if a stored table is inconsistent
    with the stored topology. *)

val snapshot : t -> Snapshot.t
(** The persistable view of the current serving state. *)

(** {1 Queries} *)

val handle : t -> Protocol.request -> (string, string) result
(** Answer one request (no framing, no counters).  Total: unknown
    prefixes, PoPs and origins come back as [Error]. *)

val explain : t -> string -> string -> (string, string) result
(** The [EXPLAIN <prefix> <as>] body: the decision chain behind the
    AS's selected route toward the prefix's origin ("anycast" or a
    client prefix id), plus the latency-optimal counterfactual.
    Provenance is recomputed deterministically on the current topology
    (through the RIB cache), never read from warm engine state — which
    is what makes seed-built and snapshot-loaded daemons answer
    byte-identically.  Shared by the serve verb and [beatbgp explain],
    so CLI and daemon output are the same bytes. *)

val provenance_jsonl : t -> origin:int -> string
(** JSONL dump of the full provenance table toward [origin]: a header
    line tagged [Netsim_obs.Provenance.schema], then one object per
    decided AS (class, next hop, link, path length, per-class
    candidate counts, tie-break rule, runner-up).  Written by
    [beatbgp explain --provenance-out]. *)

val handle_line : t -> string -> string * bool
(** Parse, count, answer and frame one request line on the default
    session; advances the churn timeline on batch boundaries.  Returns
    the framed wire response and [false] when the session should end
    (QUIT).  This is the sequential reference: every session the
    round executor serves ({!serve_fds}, {!serve_streams}, {!listen})
    answers byte-identically to feeding its lines through
    [handle_line] on a fresh server. *)

val serve_streams :
  ?on_latency:(int -> float -> unit) ->
  t ->
  string list array ->
  string list array
(** Serve [n] client request streams concurrently through the round
    executor, each in its own session, and return the framed responses
    per stream in order.  Read-only verbs are fanned over the domain
    pool; responses per stream are byte-identical to serving that
    stream alone (and to any domain count).  [on_latency i us] is
    called once per answered request with the stream index and the
    handler wall-clock microseconds — the hook the parallel benchmark
    uses for per-client latency histograms.  A QUIT on any stream
    stops the server; later lines of other streams go unanswered. *)

val retry_eintr : (unit -> 'a) -> 'a
(** Run [f], retrying while it raises [Unix.EINTR] — wraps every
    blocking syscall of the serving loop so a signal (profiler tick,
    SIGCHLD, window resize) cannot kill the daemon. *)

val serve_fds : t -> input:Unix.file_descr -> output:Unix.file_descr -> unit
(** Serve one connection that reads requests from [input] and writes
    responses to [output] — stdin/stdout for [beatbgp serve] — through
    the same round executor and [select] loop as {!listen}.  The fds
    are left in blocking mode and are not closed.  Returns after QUIT
    or at EOF on [input], once every response is written; a final
    line without a newline is still answered.  SIGPIPE is ignored
    from here on, so a closed [output] ends the loop instead of the
    process.  Never raises on malformed input — every error is framed
    as an [ERR] response. *)

val listen : ?port_ready:(int -> unit) -> t -> port:int -> unit
(** Multi-connection accept loop on localhost:[port] (non-blocking
    sockets and [select], one scheduling round per wakeup).  Each
    connection gets its own session; read-only queries from all
    connections execute concurrently over the domain pool, and
    write-barrier verbs serialize.  [port_ready] is called with the
    actual bound port once listening (useful with [port = 0]).  QUIT
    stops accepting; the daemon exits once remaining connections have
    drained.  A connection's final line without a newline is answered
    when the peer half-closes; a peer that resets or stops reading is
    dropped (SIGPIPE is ignored) without disturbing the others. *)

(** {1 Introspection (tests, CLI)} *)

val provider : t -> int
val pops : t -> int list
val prefixes : t -> Netsim_traffic.Prefix.t array
val engine : t -> Netsim_dynamics.Engine.t
val queries : t -> int
(** Requests received so far (including malformed ones). *)
