(** Exponential draws for the traffic generators and service times.
    The traffic model of LogNIC (§3.6) assumes Poisson arrivals and
    exponential service times. *)

val sample_exponential : rate:float -> Rng.t -> float
(** [sample_exponential ~rate rng] draws from the exponential
    distribution with rate λ = [rate] (mean 1/λ) by inversion of one
    uniform draw; inlinable, so the simulator's per-service/per-arrival
    fast path never boxes the rate or the result. *)
