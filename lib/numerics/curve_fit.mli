(** Least-squares curve fitting.

    §4.3 of the paper calibrates opaque IPs (the NVMe SSD) by measuring a
    latency-vs-throughput curve and curve-fitting model parameters. This
    module provides that capability: fit an arbitrary parametric model by
    minimizing the sum of squared residuals with {!Nelder_mead}, plus a
    closed-form linear regression for the affine special case. *)

type fit = {
  params : Vec.t;
  residual : float;  (** sum of squared residuals at [params] *)
  r_squared : float;  (** 1 - SS_res / SS_tot; 1.0 for a perfect fit *)
}

val fit :
  model:(Vec.t -> float -> float) ->
  data:(float * float) array ->
  p0:Vec.t ->
  unit ->
  fit
(** [fit ~model ~data ~p0 ()] minimizes
    [sum_i (model p x_i - y_i)^2] starting from [p0]. The model may
    return non-finite values for out-of-domain parameters; such
    parameter vectors are rejected ([p0] must be in-domain). Requires at
    least one data point. *)

val linear : data:(float * float) array -> float * float
(** [linear ~data] returns [(slope, intercept)] of the ordinary
    least-squares line. Requires two or more points with distinct x. *)

val mm1_latency_model : Vec.t -> float -> float
(** [mm1_latency_model [|t0; cap|] rate] is the canonical open-queue
    latency curve [t0 / (1 - rate/cap)] used to fit SSD behaviour:
    service time [t0] at zero load, diverging as [rate] approaches
    capacity [cap]. Returns [infinity] at or beyond capacity. *)
