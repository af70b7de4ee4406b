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

(** {1 Percentile summaries over raw samples} *)

val percentile : float array -> float -> float
(** [percentile samples p] with [p] in \[0,100\]: linear-interpolated
    percentile of the (unsorted; copied and sorted internally) samples.
    @raise Invalid_argument on an empty array or [p] outside \[0,100\]. *)

val percentiles : float array -> float list -> (float * float) list
(** Batch version sorting only once: returns [(p, value)] pairs. *)

val nearest_rank : int -> float -> int
(** [nearest_rank n p] with [p] in \[0,100\]: the index of the
    nearest-rank percentile in a sorted array of [n] samples,
    [ceil (p/100 · n) − 1] clamped to \[0, n−1\] — always one of the
    samples (p = 0 names the smallest), where {!percentile} interpolates
    between two.
    @raise Invalid_argument when [n < 1] or [p] is outside \[0,100\]. *)

val mean : float array -> float
val stddev : float array -> float

(** {1 Log-bucketed histogram} *)

module Histogram : sig
  type t

  val create : ?significant_digits:int -> unit -> t
  (** [significant_digits] (default 2) bounds the relative error of
      recorded values: 2 gives <1% error with modest memory. *)

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
  (** Estimated percentile (within the configured relative error).
      Returns 0 when empty. *)

  val merge_into : dst:t -> src:t -> unit
  val reset : t -> unit

  val pp_summary : Format.formatter -> t -> unit
  (** One-line summary: count, mean, P50/P90/P99/P999/P9999, max. *)
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
