(** Nelder–Mead downhill-simplex minimization.

    This is the local solver behind the LogNIC optimizer (§3.8). The paper
    uses SciPy's SLSQP; §3.8 explicitly names Nelder–Mead as an acceptable
    local alternative, which is what we implement (SciPy is unavailable —
    see DESIGN.md substitutions). Constraints are handled by
    {!Constrained} via penalties. *)

type result = {
  x : Vec.t;  (** best point found *)
  f : float;  (** objective value at [x] *)
  iterations : int;
  converged : bool;  (** false when the iteration budget ran out *)
}

val minimize : ?max_iter:int -> f:(Vec.t -> float) -> x0:Vec.t -> unit -> result
(** [minimize ~f ~x0 ()] runs the simplex from [x0] for at most
    [max_iter] iterations (default 2000). The simplex is seeded by
    perturbing each coordinate of [x0] by 5% (or by 0.05 when it is 0).
    It stops when the value spread falls below 1e-9 of the best value's
    magnitude, or the simplex diameter below 1e-9 of
    (1 + ||best point||). [f] may return [infinity] to reject a point
    (used for penalty constraints); [x0] itself must evaluate finite.
    The dimension is [Array.length x0 >= 1]. *)
