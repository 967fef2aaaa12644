(** Golden-section search for one-dimensional unimodal minimization.
    Used for single-knob tuning (e.g. one traffic-split fraction). *)

val minimize :
  ?tol:float -> f:(float -> float) -> lo:float -> hi:float ->
  unit -> float * float
(** [minimize ~f ~lo ~hi ()] returns [(x_min, f x_min)] for a unimodal [f]
    on [\[lo, hi\]]. [tol] is an absolute interval-width target
    (default 1e-8); the search stops after 200 iterations regardless.
    Raises [Invalid_argument] unless [lo < hi]. *)
