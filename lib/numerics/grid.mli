(** Exhaustive integer search.

    The LogNIC optimizer's discrete knobs (core counts, queue credits,
    parallelism degrees) span small spaces, so exhaustive search is both
    exact and cheap. *)

val maximize_int :
  f:(int -> float) -> lo:int -> hi:int -> unit -> int * float
(** Scan the inclusive range, returning the argmax (first one on ties).
    Raises [Invalid_argument] unless [lo <= hi]. *)
