(** Deterministic pseudo-random number generation for simulations.

    Every experiment draws all of its randomness from a single seeded root
    generator, so runs are reproducible bit-for-bit.  The core generator is
    SplitMix64 (Steele, Lea & Flood, OOPSLA'14): tiny state, excellent
    statistical quality for simulation purposes, and — crucially — cheap
    deterministic splitting, which lets independent subsystems (traffic
    generators, failure injectors, topology builders) own private streams
    that do not perturb each other when one of them draws more numbers. *)

type t
(** A mutable generator.  Its 64-bit SplitMix64 state is stored unboxed,
    in an 8-byte buffer read and written in place, so stepping it never
    allocates: {!int}, {!int_in}, {!bool} and {!chance} allocate nothing
    at all, and a float draw allocates only its boxed result. *)

val create : int -> t
(** [create seed] makes a generator from an integer seed.  Equal seeds give
    equal streams. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of [t]'s
    future output.  Advances [t] by one step. *)

val copy : t -> t
(** [copy t] duplicates the generator state; both copies then produce the
    same stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] draws uniformly from \[0, n).  @raise Invalid_argument if
    [n <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from \[lo, hi\] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t x] draws uniformly from \[0, x). *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p] (clamped to \[0,1\]). *)

(** {1 Distributions} *)

val exponential : t -> mean:float -> float
(** Exponential inter-arrival times; [mean] must be positive. *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto (heavy-tailed) variate with minimum value [scale]. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Log-normal variate; models skewed per-node utilizations. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normal variate (Box–Muller). *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] draws a rank in \[1, n\] with probability proportional
    to [1 / rank^s].  Uses rejection sampling; O(1) expected time. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array.  @raise Invalid_argument on
    empty input. *)
