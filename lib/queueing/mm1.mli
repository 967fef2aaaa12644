(** The M/M/1 queue: Poisson arrivals at rate [lambda], exponential
    service at rate [mu], infinite buffer. This is the [N -> infinity]
    limit of {!Mm1n} and is used as a cross-check in tests and as the
    "infinite queue" ablation of the LogNIC latency model. *)

type t = { lambda : float; mu : float }

val create : lambda:float -> mu:float -> t
(** Raises [Invalid_argument] unless both rates are positive. *)

val mean_waiting_time : t -> float
(** Wq = ρ/(μ−λ) — time spent queueing, excluding service; infinite
    when ρ ≥ 1. *)
