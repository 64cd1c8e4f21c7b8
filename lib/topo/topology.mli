(** The assembled AS-level graph with adjacency queries.

    A topology is immutable once built; providers are added by
    constructing a new topology with {!add_as} / {!add_links} (used by
    the CDN and WAN layers to graft a content or cloud AS onto a base
    Internet). *)

type t

val make : Asn.t array -> Relation.link list -> t
(** Build from AS records and links.  AS ids must be dense [0..n-1]
    and match their array index; link endpoints must be valid.
    @raise Invalid_argument otherwise. *)

val as_count : t -> int
val link_count : t -> int

val generation : t -> int
(** Unique stamp of this topology value.  Every constructor —
    including {!remove_links}, the dynamics engine's reconvergence
    path — returns a value with a fresh stamp, so a stamp equality
    check is a sound (and precise) cache-invalidation test: two equal
    stamps always denote the very same link set.  Stamps carry no
    meaning beyond identity. *)

val asn : t -> int -> Asn.t
val ases : t -> Asn.t array
val links : t -> Relation.link array

val link : t -> int -> Relation.link
(** [link t id] is the link record with id [id], in O(1) from a table
    built by the constructor (the [links] array itself while ids are
    dense).  Ids survive {!remove_links}, so this is not an index into
    {!links}.  @raise Invalid_argument on an id not in [t]. *)

(** {2 Packed CSR adjacency}

    The only adjacency a topology stores.  Each neighbor is one
    immediate int with the link id in bits 0-20, the peer AS id in
    bits 21-40 and the relation (from the row's AS) in bits 41-42,
    decoded with the [pn_*] accessors.  AS count is capped at 2^20 and
    link ids at 2^21 by the constructors to keep the packing valid.

    The words live in a compressed-sparse-row arena: AS [x]'s
    neighbors are [csr_words.(csr_offsets.(x))
    .. csr_words.(csr_offsets.(x+1) - 1)].  Every constructor builds it
    from the link array by counting sort, so a row lists the links
    touching [x] in reverse link-array order.  Both arrays are built
    once per topology and shared {e read-only} across pool domains —
    never mutate them. *)

val max_as_count : int
(** 2^20 — the AS-count cap the packed word layout supports. *)

val max_link_count : int
(** 2^21 — the exclusive upper bound on link ids. *)

val csr_offsets : t -> int array
(** Row offsets, length [as_count t + 1]; [csr_offsets t .(as_count t)]
    is the total directed-edge count (2 × {!link_count}). *)

val csr_words : t -> int array
(** The packed neighbor word arena indexed by {!csr_offsets}. *)

val pn_peer : int -> int
val pn_link : int -> int
(** Link {e id} (stable across {!remove_links}), not an index into
    {!links}. *)

val pn_rel : int -> Relation.rel

val fold_row : t -> int -> (int -> 'a -> 'a) -> 'a -> 'a
(** [fold_row t x f init] folds [f] over AS [x]'s packed words from
    the last to the first, like [List.fold_right], so consing builds a
    list in row order. *)

(** The CSR arena split by relation class: per AS, only its
    [To_provider], peer ([Priv_peer]/[Pub_peer]) and [To_customer]
    words, each segment in row order and indexed like {!csr_offsets}
    ([up_words.(up_off.(x)) .. up_words.(up_off.(x+1) - 1)] and so
    on).  Lets propagation export to one relation class without
    decoding every word of a row.  Shared read-only, like the arena. *)
type partition = {
  up_off : int array;
  up_words : int array;
  lat_off : int array;
  lat_words : int array;
  down_off : int array;
  down_words : int array;
}

val partition : t -> partition
(** The class-partitioned arena, built in O(n+m) on first use and
    memoised on the topology value (domain-safe: racing builders
    compute equal arrays and one result wins).  Every constructor,
    {!remove_links} included, returns a value with no partition built
    yet. *)

val of_csr :
  ases:Asn.t array ->
  links:Relation.link array ->
  csr_off:int array ->
  csr_words:int array ->
  t
(** Reconstruct a topology from its links and CSR arena, as stored in
    a snapshot.  Link records keep their ids verbatim (unlike {!make},
    which reassigns ids by list position), so a topology whose link
    ids are sparse because {!remove_links} ran round-trips exactly.
    The arena is rebuilt from [links] the way every constructor builds
    it, and [csr_off]/[csr_words] must equal the rebuilt arrays word
    for word; they are only compared, never kept.
    @raise Invalid_argument on any inconsistency. *)

val customers : t -> int -> int list
val providers : t -> int -> int list
val peers : t -> int -> int list
(** Both private and public peers. *)

val degree : t -> int -> int

val links_between : t -> int -> int -> Relation.link list
(** All links between two ASes (multi-links at different metros are
    allowed), in row order. *)

val link_ids_of : t -> ?metro:int -> int -> int list
(** Ids of the links touching an AS, ascending; with [~metro], only
    those interconnecting at that metro (a site's sessions). *)

val add_as : t -> klass:Asn.klass -> name:string -> footprint:int array -> t * int
(** Returns the extended topology and the new AS id. *)

val add_links :
  t -> (int * int * Relation.kind * int * float) list -> t
(** [(a, b, kind, metro, capacity)] tuples; ids are assigned
    sequentially after the largest existing id, so they stay unique
    after {!remove_links}. *)

val remove_links : t -> int list -> t
(** Fail the links with the given ids: they disappear from the
    adjacency but ids of surviving links are preserved, so congestion
    state and announcement configs built on the original topology
    remain valid.  Unknown ids are ignored. *)

val remove_links_of_as : t -> int -> t
(** Fail every link touching the given AS (an AS-level outage). *)

val by_klass : t -> Asn.klass -> int list

val ases_at_metro : t -> int -> int list
(** ASes whose footprint contains the metro. *)
