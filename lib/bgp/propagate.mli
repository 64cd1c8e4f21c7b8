(** Valley-free BGP route computation for one destination prefix.

    Implements the standard Gao–Rexford model: routes learned from
    customers are exported to everyone; routes learned from peers or
    providers are exported only to customers.  Selection prefers
    customer-learned over peer-learned over provider-learned routes,
    then shorter (prepend-inclusive) AS paths, with a deterministic
    tie-break.  The per-link announcement configuration supports
    anycast, single-site unicast prefixes, prepending and selective
    withholding (grooming).

    One [run] computes the routing state of {e every} AS toward the
    prefix, so anycast catchments for all clients cost a single run. *)

type state

val run : ?provenance:bool -> Netsim_topo.Topology.t -> Announce.t -> state
(** Compute routes from every AS to the configured origin, inside the
    [bgp.propagate] span.  The kernel drains a monotone per-length
    level queue over bit-packed flat arrays, settling each AS by its
    minimum candidate, and exports over the topology's memoised
    class-partitioned adjacency ({!Netsim_topo.Topology.partition});
    see doc/performance.md.

    With [~provenance:true] (default:
    [Netsim_obs.Provenance.enabled ()]) the run additionally records,
    per (route class, AS), the candidate count and the runner-up into
    a {!Netsim_obs.Provenance} arena, queryable via {!decision}.  The
    disabled path costs one load + branch per record site. *)

val run_batch :
  ?provenance:bool -> Netsim_topo.Topology.t -> Announce.t array -> state array
(** [run_batch topo configs] is one {!run} per config, in order,
    inside one [bgp.propagate_batch] span (bumping
    [bgp.propagate_batches] and [bgp.propagate_batch_origins]) instead
    of one [bgp.propagate] span each.  Each state is {!equal} (and,
    with provenance on, arena-equal) to an independent {!run} of its
    config — the differential property in [test/test_scale.ml].
    Duplicate origins are allowed and computed independently. *)

val equal : state -> state -> bool
(** Same origin and identical per-AS routing entries in all three
    route classes (length, parent, link and NO_EXPORT flag). *)

(** {1 Incremental reconvergence}

    The dynamics engine mutates topologies one link at a time (flaps,
    failures, repairs).  [reconverge] updates an existing state for
    such a delta by re-running propagation only over the {e dirty} ASes
    — those whose routes can possibly change — seeded from the
    untouched boundary, with the kernel's level drain restricted to
    the dirty set.  Equivalent to a full [run] on the new topology,
    typically much cheaper for a single link event (see
    [bench/micro_dynamics.ml]). *)

type delta =
  | Link_removed of int
      (** The link with this id was removed; the new topology must be
          the old one minus exactly that link
          ({!Netsim_topo.Topology.remove_links} preserves ids). *)
  | Link_added of int
      (** The link with this id is present again in the new topology
          (a repair restoring a previously removed link). *)

type reconverge_stats = {
  rs_dirty_cust : int;  (** ASes whose customer-learned entry was re-derived. *)
  rs_dirty_peer : int;
  rs_dirty_prov : int;
  rs_as_count : int;
}

val rs_dirty : reconverge_stats -> int
(** Total dirty entries across the three classes. *)

val reconverge :
  ?provenance:bool ->
  state ->
  topo:Netsim_topo.Topology.t ->
  delta ->
  state * reconverge_stats
(** [reconverge s ~topo delta] is the routing state on [topo], where
    [topo] differs from [s]'s topology by exactly [delta].  The input
    state is not modified.  Phases 1 and 3 run {!run}'s level drain
    with exports restricted to the dirty ASes; phase 2 pulls each
    dirty AS's lateral candidates.  @raise Invalid_argument if the AS count
    changed or an added link id is absent from [topo].

    Provenance (requested explicitly, inherited from [s], or via the
    global flag) is rebuilt by one full instrumented sweep: a link
    delta changes candidate arrival sets beyond the entry dirty
    closure, so the arena cannot be patched incrementally.  The
    routing entries still come from the incremental algorithm, and the
    result's provenance equals a full [run ~provenance:true] on
    [topo]. *)

val topology : state -> Netsim_topo.Topology.t
val config : state -> Announce.t
val origin : state -> int

(** {1 RIB snapshot views}

    The three per-class routing tables are flat arrays of bit-packed
    entries (one immediate int per AS, [-1] when absent) — see the
    layout comment in [propagate.ml].  [rib_arrays]/[of_rib_arrays]
    expose them for binary snapshotting: saving a state is three array
    copies, and loading validates every entry against the topology, so
    a reconstructed state answers queries identically to the one that
    was saved. *)

val rib_arrays : state -> int array * int array * int array
(** Copies of the (customer, peer, provider) routing tables, indexed
    by AS id. *)

val of_rib_arrays :
  topo:Netsim_topo.Topology.t ->
  config:Announce.t ->
  cust:int array ->
  peer:int array ->
  prov:int array ->
  state
(** Rebuild a state from snapshotted tables.  The arrays are copied.
    Every present entry must sit off the origin and reference a link
    of [topo] that joins the AS to its parent with the relation of the
    entry's class, and must be longer than the parent entry that
    {!as_path} follows (unless the parent is the origin), so path walks
    over the result always terminate.  @raise Invalid_argument
    otherwise. *)

val best : state -> int -> Route.t option
(** The selected best route of an AS ([None] for the origin itself and
    for ASes that cannot reach the prefix). *)

val selected_class : state -> int -> Route.klass option

val reachable : state -> int -> bool
(** True for the origin and any AS with a route. *)

val path_len : state -> int -> int
(** The selected route's prepend-inclusive path length; [-1] for the
    origin and unreachable ASes. *)

val next_hop : state -> int -> int
(** The selected route's next-hop AS; [-1] for the origin and
    unreachable ASes.

    {!selected_class}, {!reachable}, {!path_len} and {!next_hop} read
    the packed tables without building a {!Route.t} or an AS path:
    per-AS loops over whole states (aggregation, hop-by-hop walks) use
    them instead of {!best}. *)

val as_path : state -> int -> int list
(** Full AS path from the given AS to the origin (excluding the AS
    itself, including the origin); [] for the origin or if
    unreachable. *)

val received : state -> int -> Route.t list
(** Every announcement the AS receives from its neighbors, one per
    session, after export filtering and loop suppression.  This is the
    Adj-RIB-In used to enumerate a PoP's alternate routes. *)

val received_at_metro : state -> int -> metro:int -> Route.t list
(** Announcements arriving on sessions at a given metro — the routes
    available to a specific PoP of a multi-site AS. *)

(** {1 Decision provenance}

    Why each AS's winning route won: the Gao-Rexford phase that
    admitted it, the candidate set considered at decision time, the
    exact tie-break rule that discriminated, and the rejected
    runner-up.  Available on states computed with provenance on
    ([run ~provenance:true] or [NETSIM_PROVENANCE=1]); surfaced by
    [beatbgp explain] and the serve protocol's [EXPLAIN] verb. *)

val has_provenance : state -> bool

val provenance_equal : state -> state -> bool
(** Both states carry no provenance, or both carry structurally equal
    arenas — the determinism invariant (run-to-run, cache on/off, any
    domain count) checked by the test suite. *)

(** The rejected runner-up: the most preferred candidate that lost. *)
type runner = {
  r_klass : Route.klass;
  r_path_len : int;
  r_next_hop : int;
  r_link_id : int;
}

type decision = {
  d_klass : Route.klass;  (** Winning route class (= Gao-Rexford phase). *)
  d_path_len : int;
  d_next_hop : int;
  d_link_id : int;
  d_cand_cust : int;  (** Candidate announcements considered, per class. *)
  d_cand_peer : int;
  d_cand_prov : int;
  d_rule : Netsim_obs.Provenance.rule;
      (** What discriminated the winner from the runner-up. *)
  d_runner : runner option;  (** [None] iff the winner was the only
                                 candidate. *)
}

val decision : state -> int -> decision option
(** The decision chain behind an AS's selected route; [None] for the
    origin and for unreachable ASes.  @raise Invalid_argument if the
    state carries no provenance. *)
