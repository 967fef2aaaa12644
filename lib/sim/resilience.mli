(** The model-vs-simulation join for faulted runs — what [lognic faults]
    prints. The analytic side is {!Lognic.Degraded.evaluate} over the
    plan's constant-fault intervals ({!Faults.modifiers}); the simulated
    side is one {!Netsim.execute} of the same plan, its fine
    sub-interval accounting ({!Faults.interval_stats})
    aggregated back onto the model's intervals (the sub-interval grid
    refines the plan boundaries, so the aggregation is exact). Joining
    conventions — relative errors, ranked worst row — follow
    {!Explain}. *)

type row = {
  r_start : float;
  r_stop : float;
  r_faults : string list;  (** active {!Faults.fault_label}s *)
  r_degraded : bool;
  model_throughput : float;  (** the interval's model carried rate *)
  sim_throughput : float;  (** delivered bytes / interval seconds *)
  throughput_error : float;  (** {!Explain.relative_error} *)
  model_latency : float;
  sim_latency : float;
  latency_error : float;  (** 1 when the model predicts [infinity] *)
  sim_offered : int;
  sim_delivered : int;
  sim_dropped : int;
  slo_ok : bool;  (** the {e model}'s SLO verdict for the interval *)
}

type report = {
  plan : Faults.plan;
  duration : float;
  rows : row list;  (** chronological, one per model fault interval *)
  model : Lognic.Degraded.report;
  measurement : Netsim.measurement;  (** the joined simulation run *)
  sim_degraded_throughput : float;  (** time-weighted, mirrors the model's *)
  sim_availability : float;
      (** fraction of the horizon whose simulated throughput holds ≥ the
          SLO fraction of the sim's best interval rate *)
  resilience : Faults.resilience option;  (** the joined run's recovery *)
  across_runs : Faults.resilience_replicated option;
      (** present when [runs ≥ 2] was requested *)
}

val run :
  ?config:Netsim.config ->
  ?queue_model:Lognic.Latency.queue_model ->
  ?slo:Lognic.Degraded.slo ->
  ?runs:int ->
  ?jobs:int ->
  Lognic.Graph.t ->
  hw:Lognic.Params.hardware ->
  traffic:Lognic.Traffic.t ->
  plan:Faults.plan ->
  report
(** Evaluate both sides and join per interval. [runs] (default 1): when
    ≥ 2, additionally replicates the faulted spec with derived seeds
    (over [jobs] domains) for {!report.across_runs}. An empty plan is
    legal — the report degenerates to one healthy interval joining the
    nominal model against the whole run. Raises [Invalid_argument] on an
    invalid graph or a plan targeting unknown entities. *)

val to_json : report -> Telemetry.Json.t
(** Versioned ([schema = "faults"]); embeds the plan, per-interval rows,
    both sides' composites, and recovery statistics. *)

val pp : Format.formatter -> report -> unit
(** Chronological per-interval table with the worst-joining row
    flagged. *)
