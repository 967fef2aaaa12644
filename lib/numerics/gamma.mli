(** The gamma function and gamma distribution, used by the tail-latency
    extension: a path's sojourn time is approximated by a gamma
    distribution with matched mean and variance, whose quantiles give
    p50/p90/p99 estimates. *)

val cdf : shape:float -> scale:float -> float -> float
(** Gamma(shape, scale) CDF. *)

val quantile : shape:float -> scale:float -> float -> float
(** [quantile ~shape ~scale p] inverts the CDF for p in (0, 1) by
    bracketed bisection (~1e-10 relative). *)

val of_moments : mean:float -> variance:float -> (float * float) option
(** [(shape, scale)] matching the given positive moments; [None] when
    mean or variance is non-positive (degenerate distribution). *)
