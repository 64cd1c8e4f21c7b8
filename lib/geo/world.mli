(** Embedded world metro database.

    ~140 metro areas with coordinates and populations covering every
    continent.  The paper's settings are global (Facebook PoPs on all
    continents, Microsoft front-ends, Speedchecker vantage points in
    17k ⟨city, AS⟩ pairs); the topology generator draws footprints and
    client populations from this table. *)

val cities : City.t array
(** All metros, indexed by {!City.t.id}. *)

val count : int

val find : string -> City.t option
(** Lookup by metro name (exact match). *)

val find_exn : string -> City.t
(** @raise Not_found if the metro is unknown. *)

val by_continent : Region.continent -> City.t list
(** The continent's metros in {!cities} order (a table built once). *)

val by_country : string -> City.t list
(** The country's metros in {!cities} order (a table built once); [[]]
    for an unknown code. *)

val countries : string list
(** Distinct country codes, sorted. *)

val nearest : Coord.t -> City.t
(** Metro closest to a coordinate. *)

val total_population_m : float

val population_weights : float array
(** Per-city population weights aligned with {!cities}; sums to 1. *)

val hub_score : City.t -> float
(** Interconnection importance of a metro: population boosted heavily
    for the classic colocation/IXP hubs (Frankfurt, Amsterdam, London,
    Ashburn, …).  Peering density follows these facilities, not raw
    population — Moscow is Europe's biggest metro but not its peering
    hub. *)

val hub_scores : float array
(** [hub_score] of every metro, aligned with {!cities}. *)
