(** Constrained minimization on top of {!Nelder_mead}.

    Constraints are expressed as inequality residuals [g x <= 0] and box
    bounds; violations are folded into the objective as quadratic
    penalties with an escalating weight, the textbook exterior-penalty
    scheme. [multi_start] restarts from several points to escape the
    local minima a single simplex can get stuck in (the paper makes the
    same caveat about Nelder–Mead in §3.8). *)

type problem = {
  objective : Vec.t -> float;
  inequality : (Vec.t -> float) list;
      (** each [g] is satisfied when [g x <= 0] *)
  lower : Vec.t;
  upper : Vec.t;
}

type solution = {
  x : Vec.t;
  f : float;  (** raw objective at [x], penalties excluded *)
  feasible : bool;  (** all inequalities within [1e-6] and inside the box *)
}

val multi_start : rng:Rng.t -> problem -> solution
(** [multi_start ~rng problem] seeds 8 random points in
    the box plus the box centre, and returns the best feasible solution
    found (or the least-infeasible one when none is feasible). *)
