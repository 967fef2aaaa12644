(** The M/M/1/N queue — Poisson arrivals, exponential service, at most
    [capacity] requests in the system (arrivals finding it full are
    dropped). This is the queueing discipline the LogNIC latency model
    assigns to every IP block (paper Eqs 9–12): the IP's input queues are
    concatenated into one virtual shared queue whose capacity is the
    queue-entry provision (e.g. PANIC "credits").

    Unlike M/M/1, the system is well-defined for any ρ, including ρ ≥ 1:
    the finite buffer sheds load instead of diverging. *)

type t = { lambda : float; mu : float; capacity : int }

val create : lambda:float -> mu:float -> capacity:int -> t
(** Raises [Invalid_argument] unless rates are positive and
    [capacity >= 1]. *)

val state_probabilities : t -> float array
(** The normalized vector [Pro_0 .. Pro_N] (paper Eq 10) in one O(N)
    pass; [Pro_N] is the blocking probability, the IP's drop rate.
    Finite for any ρ: when ρ^N overflows, the vector is normalized
    from the top state down. *)

val mean_time_in_system : t -> float
(** W = L/λe (Little's law over admitted requests). Finite for any
    finite ρ: past ρ ≈ 1e16, where Pro_N rounds to 1, λe counts the
    mass below the top state. *)

val mean_waiting_time : t -> float
(** Q = L/λe − 1/μ — paper Eq 9/12, the queueing delay that enters the
    per-IP latency term. Never negative (clamped against rounding). *)

val waiting_time_closed_form : t -> float
(** Paper Eq 12's algebraic form
    (1/μ)·(ρ/(1−ρ) − Nρ^N/(1−ρ^N)), with the ρ→1 limit handled.
    Kept separate so [lognic check]'s properties can confirm it agrees
    with [mean_waiting_time]. *)
