(** Traffic profiles (Table 2: BW_in, g_in, dist_size).

    A {e single-class} profile is fixed-size packets offered at a given
    byte rate — the assumption §3.5/§3.6 derive under. A {e mix}
    (Extension #2) is a weighted set of single-class profiles, evaluated
    per class and averaged by weight. *)

type t = {
  rate : float;  (** BW_in — offered load in bytes/s *)
  packet_size : float;  (** g_in — bytes per packet (transfer granule) *)
}

val make : rate:float -> packet_size:float -> t
(** Raises [Invalid_argument] unless both values are finite and
    positive and the packet rate [rate /. packet_size] is finite (a
    tiny packet size can overflow it). *)

val packet_rate : t -> float
(** Packets per second: rate / packet_size. *)

type mix = (t * float) list
(** Weighted classes; weights need not be normalized. *)

val mix : (t * float) list -> mix
(** Validates: non-empty, non-negative weights, positive weight sum. *)

val mix_of_sizes : rate:float -> sizes:(float * float) list -> mix
(** [mix_of_sizes ~rate ~sizes] splits one aggregate byte rate across
    packet-size classes [(size, weight)] — the "split bandwidth across
    different-sized flows" construction of §4.6 scenario 1. Each class
    carries [rate * w/Σw] bytes/s of its own size. *)

val normalize_weights : mix -> (t * float) list
(** Same classes with weights summing to 1. *)

val mean_packet_size_by_packets : mix -> float
(** Packet-weighted (harmonic-in-bytes) mean packet size:
    [total_rate / total_packet_rate]. Dividing the aggregate byte rate
    by this value yields the mix's true aggregate packet rate, which
    the byte-weighted mean does not. *)

val pp : Format.formatter -> t -> unit
