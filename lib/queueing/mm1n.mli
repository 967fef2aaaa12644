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

(** One queue solved from one state vector: what the latency model
    (Eq 9–12) and the tail extension both read. The admitted fraction
    behind λe and the arrival distribution is 1 − Pro_N, or, past
    ρ ≈ 1e16 where Pro_N rounds to 1, the mass below the top state;
    W and the moments are therefore finite for any finite ρ. *)
type solution = {
  probs : float array;
      (** the normalized vector [Pro_0 .. Pro_N] (paper Eq 10); finite
          for any ρ: when ρ^N overflows it is normalized from the top
          state down *)
  blocking : float;  (** [Pro_N], the IP's drop rate *)
  time_in_system : float;
      (** W = L/λe (Little's law over admitted requests) *)
  waiting : float;
      (** Q = W − 1/μ — paper Eq 9/12, the queueing delay that enters
          the per-IP latency term; never negative (clamped against
          rounding) *)
  sojourn : float * float;
      (** an accepted arrival's sojourn (mean, variance), from the
          state it finds on arrival (PASTA conditioned on
          acceptance); an infinite mean when W is infinite (no mass
          below the top state is representable) *)
}

val solution :
  lambda:float ->
  mu:float ->
  float array ->
  moments:(admitted:float -> float * float) ->
  solution
(** [solution ~lambda ~mu probs ~moments] derives every field from a
    birth-death state vector [probs] over [0..N]; [moments ~admitted]
    computes the sojourn (mean, variance) from q_k =
    [probs.(k) /. admitted], the probability that an accepted arrival
    finds [k] requests. {!Mmcn.solve} shares it. *)

val solve : t -> solution
(** The M/M/1/N solution: an arrival that finds [k] requests sojourns
    for an Erlang(k+1, μ) time. *)

val waiting_time_closed_form : t -> float
(** Paper Eq 12's algebraic form
    (1/μ)·(ρ/(1−ρ) − Nρ^N/(1−ρ^N)), with the ρ→1 limit handled.
    Kept separate so [lognic check]'s properties can confirm it agrees
    with {!solve}'s [waiting]. *)
