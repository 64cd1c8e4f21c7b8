(** Versioned binary snapshot of a warm serving state.

    A snapshot captures everything the {!Server} needs to resume
    answering queries without re-propagating: the base topology, the
    currently-failed links, the flat per-class RIB arrays of every
    tracked prefix, the client-prefix population, the pending dynamics
    timeline and the active congestion overlays.  The header carries a
    magic string, a schema version and the git sha of the build that
    wrote the file, so snapshot files are attributable and version
    skew fails loudly.

    The schema (version 2) keeps every large flat array (CSR
    adjacency arena, link tables, per-prefix RIBs) in an 8-aligned
    little-endian int64 arena indexed by a section table, so {!load}
    pulls them through [Unix.map_file] Bigarray views instead of
    byte-decoding: at internet scale, loading is a handful of bulk
    blits of page cache.  Only the small trailing metadata block is
    stream-decoded.

    The encoding is deterministic: re-encoding a loaded snapshot is
    byte-identical to the file it came from (the round-trip property
    [make verify] and the test suite check).  Both decoders are total:
    truncation, corruption and version skew produce [Error], never an
    exception or a crash.  Everything is little-endian; see
    doc/serving.md for the exact layout. *)

type rib = {
  rib_origin : int;  (** Origin AS of the tracked (default) announcement. *)
  rib_active : bool;  (** False while the prefix is withdrawn. *)
  rib_cust : int array;
  rib_peer : int array;
  rib_prov : int array;
      (** Bit-packed per-class routing tables, indexed by AS id — the
          arrays {!Netsim_bgp.Propagate.rib_arrays} exposes. *)
}

type t = {
  git_sha : string;  (** Build that wrote the snapshot. *)
  created_gen : int;
      (** Generation stamp the snapshotted base topology had in the
          writing process.  Informational: a loaded topology gets a
          fresh stamp (stamps are process-local identities). *)
  seed : int;  (** Scenario seed (congestion and churn substreams). *)
  now_min : float;  (** Engine clock at snapshot time. *)
  base : Netsim_topo.Topology.t;  (** Base (pre-failure) topology. *)
  down_links : int list;  (** Currently-failed link ids, ascending. *)
  asid : int;  (** The serving provider's AS id. *)
  pops : int list;  (** Provider PoP metros. *)
  prefixes : Netsim_traffic.Prefix.t array;
  ribs : rib list;  (** Tracked prefixes, engine insertion order. *)
  pending : (float * Netsim_dynamics.Event.t) list;
      (** Unprocessed timeline events, pop order. *)
  overlays : (int * float) list;
      (** Active congestion event overlays: (link id, extra ms). *)
}

val magic : string
(** 8-byte file magic (["BBGPSNAP"]). *)

val schema_version : int
(** The schema number this build reads and writes: 2. *)

val to_bytes : t -> string
(** Encode (arena + section table + metadata block). *)

val of_bytes : string -> (t, string) result
(** Decode and validate from memory.  Wrong magic, any schema version
    other than {!schema_version}, truncation and any structural
    inconsistency (bad link references, table lengths, a section
    table that does not tile the arena, ...) produce a clear [Error],
    never an exception. *)

val save : t -> path:string -> unit
(** Write a snapshot file.
    @raise Sys_error on an unwritable path. *)

val load : path:string -> (t, string) result
(** Read a snapshot file with the same checks and errors as
    {!of_bytes}.  Arena sections are [Unix.map_file]d and
    bulk-blitted, so a page-cache warm restart skips the byte-stream
    decode entirely. *)
