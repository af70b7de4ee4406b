(** Measurement primitives: counters, percentile histograms, time series.

    The paper reports tail percentiles up to P9999 over fleets of O(10K)
    vSwitches and latency/CPS curves over time; this module provides the
    corresponding collectors.  Histograms use logarithmic bucketing
    (HdrHistogram-style) so that relative error is bounded regardless of
    the value range. *)

(** {1 Counters} *)

module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end

(** {1 Percentiles}

    One rule throughout: the nearest rank.  A percentile always names one
    recorded sample, never a value between two. *)

val nearest_rank : int -> float -> int
(** [nearest_rank n p] with [p] in \[0,100\]: the index of the
    [p]-th percentile in a sorted array of [n] samples,
    [ceil (p/100 · n) − 1] clamped to \[0, n−1\], so [p = 0] names the
    smallest sample and [p = 100] the largest.
    @raise Invalid_argument when [n < 1] or [p] is outside \[0,100\]. *)

val percentile : float array -> float -> float
(** [percentile samples p] with [p] in \[0,100\]: the sample at
    [nearest_rank n p] of the (unsorted; copied and sorted internally)
    samples.  With an even [n], [p = 50] is the lower middle sample.
    @raise Invalid_argument on an empty array or [p] outside \[0,100\]. *)

val mean : float array -> float
val stddev : float array -> float

(** {1 Log-bucketed histogram} *)

module Histogram : sig
  type t

  val create : unit -> t
  (** Buckets grow by 1% (two significant digits). *)

  val record : t -> float -> unit
  (** Record a non-negative sample.  Negative samples are clamped to 0. *)

  val record_n : t -> float -> int -> unit
  (** Record the same value [n] times. *)

  val count : t -> int
  val total : t -> float
  val mean : t -> float
  val min_value : t -> float
  val max_value : t -> float

  val percentile : t -> float -> float
  (** The sample at {!nearest_rank}[ (count t) p], the same rank that
      {!Stats.percentile} takes.  Rank 0 answers {!min_value} and rank
      [count − 1] answers {!max_value} exactly; any other rank answers the
      midpoint of the bucket holding that sample, clamped to
      \[{!min_value}, {!max_value}\], within 0.5% of the sample.
      Returns 0 when empty.
      @raise Invalid_argument when [p] is outside \[0,100\]. *)

  val merge_into : dst:t -> src:t -> unit
end

(** {1 Time series} *)

module Series : sig
  type t

  val create : name:string -> t
  val add : t -> time:float -> float -> unit
  val name : t -> string
  val length : t -> int
  val points : t -> (float * float) array
  (** Chronological (time, value) pairs in insertion order. *)

  val last : t -> (float * float) option

  val pp_table : ?limit:int -> Format.formatter -> t -> unit
  (** Print as a two-column table, downsampled to at most [limit] rows
      (default 50) by striding. *)
end
