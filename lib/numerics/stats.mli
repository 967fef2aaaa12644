(** Descriptive statistics for telemetry and model validation. *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

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

val relative_error : actual:float -> expected:float -> float
(** [|actual - expected| / |expected|]; infinite when [expected = 0] and
    [actual <> 0], 0 when both are 0. Used throughout the experiment
    harness to report paper-vs-measured gaps. *)

val weighted_mean : (float * float) list -> float
(** [(value, weight)] pairs; raises [Invalid_argument] when the weight sum
    is not positive. *)

(** Streaming mean accumulator (Welford's update). *)
module Online : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val mean : t -> float
end
