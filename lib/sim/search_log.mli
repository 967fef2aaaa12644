(** Optimizer search telemetry: a thread-safe fold of
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

    All entry points lock an internal mutex, so one log can serve a
    parallel ([~jobs]) grid search; under parallel evaluation the
    best-so-far fold runs in arrival order, which may differ from
    sequence order, but the final best is order-independent.
    [lognic optimize --search-log PATH] writes {!to_json} to a file. *)

type t

val create : unit -> t

val observer : t -> Lognic.Optimizer.observation -> unit
(** The callback to pass as [~observer:(Search_log.observer log)]. *)

val to_json : t -> Telemetry.Json.t
