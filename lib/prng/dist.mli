(** Random variates for the simulation's stochastic components.

    Every sampler takes the generator explicitly; none of them keeps
    hidden state, so substreams can be derived per component with
    {!Splitmix.of_label} and experiments stay reproducible. *)

val uniform : Splitmix.t -> lo:float -> hi:float -> float
(** Uniform on [\[lo, hi)]. *)

val normal : Splitmix.t -> mean:float -> std:float -> float
(** Gaussian via the Box–Muller transform. *)

val lognormal : Splitmix.t -> mu:float -> sigma:float -> float
(** [exp] of a Gaussian with the given log-space parameters. *)

val exponential : Splitmix.t -> rate:float -> float
(** Exponential with the given rate; mean is [1. /. rate]. *)

val pareto : Splitmix.t -> shape:float -> scale:float -> float
(** Pareto (type I): support [\[scale, infinity)]. *)

val poisson : Splitmix.t -> mean:float -> int
(** Poisson-distributed count (Knuth's method for small means, normal
    approximation above 60). *)

val bernoulli : Splitmix.t -> p:float -> bool
(** True with probability [p]. *)

type zipf
(** Precomputed Zipf sampler over ranks [1..n]. *)

val zipf_make : n:int -> s:float -> zipf
(** [zipf_make ~n ~s] prepares a Zipf distribution with exponent [s]
    over [n] ranks.  @raise Invalid_argument if [n <= 0]. *)

val zipf_sample : zipf -> Splitmix.t -> int
(** Sample a rank in [\[0, n)] (0-based; rank 0 is the most popular). *)

val zipf_weight : zipf -> int -> float
(** [zipf_weight z i] is the normalized probability of rank [i]. *)

val categorical : float array -> Splitmix.t -> int
(** [categorical weights rng] samples an index proportionally to
    [weights] (not necessarily normalized; all entries must be
    non-negative and the sum positive).  Staged: [categorical weights]
    builds the prefix sums once and returns a sampler that
    binary-searches them, so hoist it out of a loop that samples the
    same weights.  @raise Invalid_argument if the weights do not sum
    to a positive value. *)

val shuffle : Splitmix.t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : Splitmix.t -> int -> 'a array -> 'a array
(** [sample_without_replacement rng k arr] picks [k] distinct elements
    ([k] is clamped to the array length): the first [k] slots of a
    partial Fisher–Yates shuffle.  [arr] is not modified or copied; the
    swaps are logged, so a call costs O(k{^2}) and is meant for small
    [k].  @raise Invalid_argument if [k < 0]. *)
