(** Content-addressed, bounded-LRU memoization of {!Propagate.run}.

    Several layers recompute identical propagation states — the egress
    controller, anycast catchments, WAN tiers, the availability sweep
    and the BGP metrics sampler all run [Announce.default ~origin]
    configs on the same topology.  [run] keys a bounded cache on
    (topology generation stamp, origin, per-origin-link announcement
    actions): the key is exact, so a hit returns a state bit-identical
    to a fresh {!Propagate.run}.  Invalidation is automatic — every
    topology constructor (including
    {!Netsim_topo.Topology.remove_links}, the dynamics reconverge
    path) stamps a fresh generation, so structural changes can never
    alias a cached entry.

    Domain safety: the cache is sharded per domain (and per pool task,
    via {!capture}/{!absorb}, beside the task's
    {!Netsim_obs.Capture.run}), so no locking is
    involved and results — including hit/miss counters — are
    byte-identical for any [NETSIM_DOMAINS] value.

    Controlled by [NETSIM_RIB_CACHE] (["0"]/["false"]/["off"] disable),
    [NETSIM_RIB_CACHE_SIZE] (entries per shard, default 64) and the
    [--no-rib-cache] flag of [beatbgp all] and the figure commands.
    See doc/performance.md. *)

val run :
  ?provenance:bool -> Netsim_topo.Topology.t -> Announce.t -> Propagate.state
(** Memoized {!Propagate.run}: returns the cached state on a key hit,
    otherwise computes, caches (evicting the least-recently-used entry
    at the capacity bound) and returns.  Falls through to
    {!Propagate.run} when disabled.

    [~provenance:true] (default: [Netsim_obs.Provenance.enabled ()])
    guarantees the returned state carries a provenance arena: a hit
    on an entry cached without one regenerates it with provenance
    (counted as a miss) and upgrades the cached entry in place, so
    repeated explains of the same problem hit.  States cached with
    provenance satisfy plain lookups unchanged — the routing entries
    are bit-identical either way. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Default on; seeded from [NETSIM_RIB_CACHE]. *)

val capacity : unit -> int
val set_capacity : int -> unit
(** Entries per shard (clamped to >= 1); seeded from
    [NETSIM_RIB_CACHE_SIZE], default 64. *)

(** {1 Per-task shards}

    Used by [Netsim_par.Pool.map]: each task runs against a fresh
    shard installed with {!capture}; after the join the shards are
    {!absorb}ed into the submitting domain's shard in submission
    order, so cache behaviour is independent of how tasks were
    scheduled onto domains. *)

type shard

val fresh_shard : unit -> shard

val capture : shard -> (unit -> 'a) -> 'a
(** Run the thunk with [shard] as the current domain's cache,
    restoring the previous shard afterwards (also on exceptions). *)

val absorb : shard -> unit
(** Merge a task shard — entries oldest-first under the LRU bound,
    plus its hit/miss totals — into the current domain's shard. *)

(** {1 Introspection} *)

val size : unit -> int
(** Entries in the current shard. *)

val hits : unit -> int
val misses : unit -> int
(** Lookup totals of the current shard (independent of the
    observability switch; also exported as metrics counters
    [bgp.rib_cache.hits] / [bgp.rib_cache.misses] when tracing). *)

val clear : unit -> unit
(** Drop all entries and counters of the current shard. *)
