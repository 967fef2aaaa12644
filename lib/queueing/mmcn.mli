(** The M/M/c/N queue — [servers] parallel exponential servers, at most
    [capacity] requests in the system (queued + in service), Poisson
    arrivals, arrivals finding the system full are dropped.

    This is exactly the behaviour of a simulated IP block with [c]
    engines and an [N]-entry virtual shared queue. The LogNIC paper's
    Eq 12 collapses an IP to M/M/1/N (per-engine queues); for
    high-parallelism opaque IPs (an SSD sustaining dozens of in-flight
    commands) that overstates queueing, which the paper compensates for
    by curve-fitting the IP's parameters (§4.3). We expose the exact
    multi-server queue instead so the same correction is parameter-free
    (see {!Lognic.Latency.queue_model}). *)

type t = { lambda : float; mu : float; servers : int; capacity : int }

val create : lambda:float -> mu:float -> servers:int -> capacity:int -> t
(** [mu] is the per-server rate. Raises [Invalid_argument] unless rates
    are positive and [1 <= servers <= capacity]. *)

val utilization : t -> float
(** ρ = λ/(cμ), offered. *)

val solve : t -> Mm1n.solution
(** The M/M/c/N solution ({!Mm1n.solution}) over the birth-death chain
    with service rate min(k, c)·μ in state [k]: an accepted arrival
    that finds [k < c] requests is served at once (Exp(μ)), otherwise
    it waits an Erlang(k − c + 1, cμ) time before its Exp(μ)
    service. *)
