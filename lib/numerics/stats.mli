(** Descriptive statistics for telemetry and model validation. *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (n-1 denominator); 0 for singleton input.
    Raises [Invalid_argument] on an empty array. *)

val stddev : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0, 100\]], linear interpolation
    between order statistics. Does not mutate [xs]. NaN samples are
    ignored; the result is NaN only when every sample is NaN.
    Bit-identical to reading the non-NaN samples sorted by
    [Float.compare], with every [-0.] ranked below every [0.] (a tie
    [Float.compare] leaves open). Selects on a copy of [xs] in expected
    O(n) time. *)

val percentile_in_place : float array -> len:int -> float -> float
(** [percentile_in_place a ~len p] is [percentile (Array.sub a 0 len) p]
    without the copy: it reorders [a.(0..len-1)] in place.
    Raises [Invalid_argument] unless [0 < len <= Array.length a]. *)

val median : float array -> float

val minimum : float array -> float
(** Smallest non-NaN sample; NaN when every sample is NaN. Shares the
    NaN-ignoring policy of [percentile] so the same array can never
    report a NaN minimum alongside a finite median. *)

val maximum : float array -> float
(** Largest non-NaN sample; NaN when every sample is NaN. *)

val relative_error : actual:float -> expected:float -> float
(** [|actual - expected| / |expected|]; infinite when [expected = 0] and
    [actual <> 0], 0 when both are 0. Used throughout the experiment
    harness to report paper-vs-measured gaps. *)

val geometric_mean : float array -> float
(** Raises [Invalid_argument] on empty input or non-positive entries. *)

val weighted_mean : (float * float) list -> float
(** [(value, weight)] pairs; raises [Invalid_argument] when the weight sum
    is not positive. *)

(** Streaming mean/variance accumulator (Welford). *)
module Online : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  val stddev : t -> float
end

(** Fixed-bin histogram over the closed range [\[lo, hi\]].
    Out-of-range and NaN samples are tallied in dedicated counters
    instead of being clamped into the edge bins, so the binned shape is
    never distorted and no sample is silently lost. *)
module Histogram : sig
  type t

  val create : lo:float -> hi:float -> bins:int -> t

  val add : t -> float -> unit
  (** Record one sample. Samples inside [\[lo, hi\]] land in their bin
      ([hi] itself falls in the last bin); samples below [lo], above
      [hi], or NaN increment [underflow], [overflow], or [nan_count]
      respectively and leave the bins untouched. *)

  val counts : t -> int array

  val total : t -> int
  (** Every sample ever passed to [add], including out-of-range and
      NaN ones: [total t = in_range t + underflow t + overflow t +
      nan_count t]. *)

  val underflow : t -> int
  (** Samples strictly below [lo]. *)

  val overflow : t -> int
  (** Samples strictly above [hi]. *)

  val nan_count : t -> int
  (** NaN samples. *)

  val in_range : t -> int
  (** Samples that landed in a bin; equals the sum of [counts]. *)

  val bin_mid : t -> int -> float
  (** Midpoint value of bin [i]. *)
end
