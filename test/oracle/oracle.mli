(** Independent oracles for [Netsim_bgp.Propagate].

    Neither oracle shares code with the propagation kernel: {!run}
    recomputes routes with a [Set]-based priority queue and boxed
    entries, and {!decision} re-derives the provenance of every AS
    from the final routing tables alone.  The differential properties
    in the test suite and [bench/micro_propagate] hold the kernel to
    both.

    The list adjacency below is the reference for the topology's CSR
    arena: it is built from [Topology.links] alone. *)

type neighbor = {
  peer : int;  (** Neighboring AS id. *)
  rel : Netsim_topo.Relation.rel;  (** Relation from this AS's perspective. *)
  link : Netsim_topo.Relation.link;
}

val adjacency : Netsim_topo.Topology.t -> neighbor list array
(** One boxed row per AS, built by prepending every link to both of
    its endpoints' rows in link-array order, so a row lists its links
    in reverse link-array order — the order the CSR arena must have. *)

val neighbors : Netsim_topo.Topology.t -> int -> neighbor list
(** [(adjacency topo).(x)], built for the one AS by a scan of the
    links. *)

val run : Netsim_topo.Topology.t -> Netsim_bgp.Announce.t -> Netsim_bgp.Propagate.state
(** Compute routes from every AS to the configured origin with the
    original [Set]-based three-phase algorithm.  The result is
    [Propagate.equal] to [Propagate.run] — bit-identical routing
    entries — at a much higher cost, and carries no provenance. *)

val decision :
  Netsim_bgp.Propagate.state -> int -> Netsim_bgp.Propagate.decision option
(** [decision s x] lists every candidate route that the final entries
    of [x]'s neighbours imply under the Gao–Rexford export rules, per
    route class, and derives from them what [Propagate.decision]
    must report: the winner (the best candidate of the best non-empty
    class), the per-class candidate counts, the runner-up (the
    second-best same-class candidate by (length, parent, link), else
    the best entry of the next non-empty class) and the tie-break
    rule.  [None] for the origin and for unreachable ASes.  Needs no
    provenance in [s]. *)

(** {2 Samplers}

    The straightforward forms of two [Netsim_prng.Dist] samplers,
    which the test suite holds the library's versions to on equal rng
    streams. *)

val categorical : float array -> Netsim_prng.Splitmix.t -> int
(** A linear scan: one draw [u] scaled by the weights' left-fold sum,
    then the first index [i < n - 1] whose running sum exceeds [u],
    else [n - 1].  @raise Invalid_argument unless the weights sum to a
    positive value. *)

val sample_without_replacement :
  Netsim_prng.Splitmix.t -> int -> 'a array -> 'a array
(** A partial Fisher–Yates shuffle of a copy of the array; its first
    [min k n] slots are the sample. *)
