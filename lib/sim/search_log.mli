(** Optimizer search telemetry: a fold of
    {!Lognic.Optimizer.observation} events into a convergence log.

    Hook {!observer} into {!Lognic.Optimizer.optimize} (or [pareto])
    via its [?observer] argument and the log accumulates, each curve
    bounded by a {!Telemetry.Series} ring of the newest 4096 samples:

    - every candidate's objective score, indexed by its evaluation
      sequence number ([scores]);
    - the best-so-far curve ([best_curve]) — how quickly the search
      converged;
    - a per-knob histogram of how many candidate evaluations touched
      each knob;
    - evaluation / memo-hit totals and the best assignment seen.

    The optimizer delivers observations in sequence order from the
    calling domain at any [~jobs], so the log needs no lock and is the
    same at every job count. [lognic optimize --search-log PATH] writes
    {!to_json} to a file. *)

type t

val create : unit -> t

val observer : t -> Lognic.Optimizer.observation -> unit
(** The callback to pass as [~observer:(Search_log.observer log)]. *)

val to_json : t -> Telemetry.Json.t
