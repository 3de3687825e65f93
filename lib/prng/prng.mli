(** Deterministic pseudo-random number generation.

    All randomness in GENAS flows through this module so that every
    experiment, test, and workload is reproducible from an integer seed.
    The core generator is splitmix64 (Steele, Lea & Flood 2014): a tiny,
    fast, well-distributed 64-bit generator whose state is a single
    [int64], which makes splitting streams for independent substreams
    trivial and safe. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will produce the same
    future stream as [t]. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. Use it
    to hand substreams to parallel workload generators. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val advance : t -> int -> unit
(** [advance t n] skips [n] draws in O(1): afterwards [t] yields the
    same stream as after [n] calls to {!bits64}, or to {!float}, which
    consumes one each.

    @raise Invalid_argument if [n < 0]. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform on [[0, bound-1]]. [bound] must be
    positive.

    @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in t ~lo ~hi] is uniform on the inclusive range [[lo, hi]].

    @raise Invalid_argument if [hi < lo]. *)

val float : t -> bound:float -> float
(** [float t ~bound] is uniform on [[0, bound)]. *)

val float_in : t -> lo:float -> hi:float -> float
(** [float_in t ~lo ~hi] is uniform on [[lo, hi)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p] (clamped to
    [[0,1]]). *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal deviate via the Box–Muller transform. *)

val exponential : t -> rate:float -> float
(** Exponential deviate with the given rate (inverse mean).

    @raise Invalid_argument if [rate <= 0]. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array.

    @raise Invalid_argument on an empty array. *)

val weighted_index : t -> float array -> int
(** [weighted_index t w] draws index [i] with probability proportional
    to [w.(i)]. Weights must be non-negative and not all zero.

    @raise Invalid_argument on empty, negative, or all-zero weights. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> k:int -> n:int -> int array
(** [sample_without_replacement t ~k ~n] draws [k] distinct indices
    from [[0, n-1]], in random order.

    @raise Invalid_argument if [k < 0], [n < 0], or [k > n]. *)
