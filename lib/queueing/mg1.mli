(** The M/G/1 queue — Poisson arrivals, general service times — via the
    Pollaczek–Khinchine formula. Parameterized by the service time's
    squared coefficient of variation (scv = Var/Mean²):
    scv = 1 recovers M/M/1, scv = 0 recovers M/D/1.

    This quantifies a real LogNIC gap our Fig 15 reproduction exposes:
    bimodal packet-size mixes give service scv > 1, so the measured
    system queues (and blocks) more than the M/M/1/N model predicts. *)

type t = {
  lambda : float;
  mu : float;  (** 1 / mean service time *)
  scv : float;  (** squared coefficient of variation of service, ≥ 0 *)
}

val create : lambda:float -> mu:float -> scv:float -> t

val of_service_mix : lambda:float -> services:(float * float) list -> t
(** [of_service_mix ~lambda ~services] builds the queue for a workload
    whose service time is a mixture of [(seconds, weight)] point
    masses — e.g. per-packet-size service times weighted by packet
    share. *)

val mean_waiting_time : t -> float
(** Wq = ρ(1 + scv) / (2μ(1 − ρ)); infinite when unstable. *)

val mm1_underestimate : t -> float
(** Wq(M/G/1) / Wq(M/M/1) = (1 + scv)/2 — how far an exponential
    assumption underestimates (scv > 1) or overestimates (scv < 1) the
    queueing of this workload. *)
