(** SplitMix64 pseudo-random number generator.

    A small, fast, deterministic generator with a 64-bit state and the
    ability to {e split} into statistically independent substreams.  All
    simulation randomness in this repository flows through this module so
    that every experiment is reproducible from a single integer seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed.  Equal
    seeds yield equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will replay the same
    stream that [t] would produce from this point on. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val next_float : t -> float
(** [next_float t] is uniformly distributed in [\[0, 1)]. *)

val next_int : t -> int -> int
(** [next_int t bound] is uniform in [\[0, bound)].  [bound] must be
    positive.  @raise Invalid_argument otherwise. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val of_label : t -> string -> t
(** [of_label t label] derives a substream from [t]'s {e current} state
    and a string label, without advancing [t].  Deriving the same label
    twice from the same state yields the same stream; this gives stable
    per-component randomness that does not depend on evaluation order. *)

val of_label_int : t -> string -> int -> t
(** [of_label_int t prefix n] is [of_label t (prefix ^ string_of_int n)],
    computed without building the string. *)

val of_label_int2 : t -> string -> int -> int -> t
(** [of_label_int2 t prefix a b] is
    [of_label t (prefix ^ string_of_int a ^ "-" ^ string_of_int b)],
    computed without building the string. *)
