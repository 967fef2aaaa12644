(** Small dense float vectors for the optimizers. *)

type t = float array

val scale : float -> t -> t

val axpy : float -> t -> t -> t
(** [axpy a x y = a*x + y] elementwise. *)

val norm2 : t -> float

val dist : t -> t -> float
(** Euclidean distance. *)

val centroid : t list -> t
(** Raises [Invalid_argument] on an empty list. *)

val clamp : lo:t -> hi:t -> t -> t
(** Project elementwise into the box [\[lo, hi\]]. *)
