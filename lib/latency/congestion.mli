(** Time-varying congestion state.

    Three kinds of congestible entities:

    - [Link l]: an individual inter-AS link — congestion here is what
      performance-aware routing can route around;
    - [Access a]: a client prefix's last-mile segment — shared by
      {e every} route option to that client;
    - [Dest_net d]: the destination network's internal segment — also
      shared across options.

    The split between shared and per-link congestion is the mechanism
    behind the paper's §3.1.1 "all options degrade together"
    observation, and is fully parameterized so ablations can move the
    mix.  Episodes and per-entity draws are deterministic functions of
    (seed, entity, day), re-derived on every call; nothing is memoised.

    {b Domains.}  Every read is pure and safe from any domain on a
    shared [t].  Only the offered-load and event-delay setters write;
    run them outside parallel reads (the daemon's write barriers). *)

type entity = Link of int | Access of int | Dest_net of int

type t

val create : Params.t -> Netsim_topo.Topology.t -> seed:int -> t

val params : t -> Params.t
val topology : t -> Netsim_topo.Topology.t

val set_offered_load : t -> link_id:int -> gbps:float -> unit
(** Override a link's utilization to [load / capacity] (used by the
    peering-ablation experiment, where withdrawing peers concentrates
    traffic on fewer links). *)

val clear_offered_loads : t -> unit

(** {1 Timeline-driven congestion}

    The dynamics engine overlays event-driven extra delay on top of
    the derived diurnal/episode model: a congestion-onset event adds
    delay to a link, the matching decay removes it.  Deltas are
    additive so overlapping episodes compose; a decay never drives the
    overlay negative. *)

val add_event_delay_ms : t -> link_id:int -> ms:float -> unit
val remove_event_delay_ms : t -> link_id:int -> ms:float -> unit

val event_delay_ms : t -> link_id:int -> float
(** Current overlay on a link (0 when no event is in force). *)

val clear_event_delays : t -> unit
(** Reset the overlay on every link (used between timeline runs that
    share one congestion state). *)

val utilization : t -> link_id:int -> time_min:float -> float
(** Current utilization in [0, 0.97], including the diurnal cycle at
    the link's metro. *)

val queue_delay_ms : t -> link_id:int -> time_min:float -> float
(** Utilization-driven queueing delay on a link. *)

val episode_delay_ms : t -> entity -> time_min:float -> float
(** Added delay if the entity is inside a congestion episode at this
    time, else 0. *)

val access_base_ms : t -> int -> float
(** Per-access-segment last-mile base delay (stable per prefix): one
    label hash and one lognormal draw per call. *)

val access_rate_mbps : t -> int -> float
(** Per-access-segment last-mile capacity in Mbit/s (stable per
    prefix, lognormal around ~120 Mbit/s).  The access link is the
    bandwidth bottleneck shared by every route option to the client —
    the reason the paper's throughput comparison looks like its
    latency comparison. *)

val entity_delay_ms : t -> entity -> time_min:float -> episodes:int ref -> float
(** Total stochastic delay of an entity at a time: queueing (links
    only) plus episode delay.  Bumps [episodes] if an episode is in
    force, so a caller can count a whole flow and publish once. *)

val diurnal_factor : t -> metro:int -> time_min:float -> float
(** Local-time load multiplier, mean 1, peaking in the local evening. *)
