(** The multi-resource contention report behind [lognic contention].

    Runs the joint multi-class model with the interference layer
    ({!Lognic.Extensions.mixed_traffic} via {!Explain.run_mix}) against
    one multi-class simulation, and reports:

    - per-class model-vs-sim residuals (throughput and latency), each
      class's contention slowdown, its per-resource pressure and byte
      ceilings, and its model p99 on the union queues;
    - per-entity residual rows ranked by simulated utilization (the
      same join as [lognic explain]);
    - a ranked interference report: victim←aggressor pairs ordered by
      their slowdown contribution M_ij · pressure_j.

    The JSON is versioned ([schema = "contention"]) like the [explain]
    and [faults] reports. *)

type class_info = {
  slowdown : float;  (** ≥ 1; 1 without a contention spec *)
  pressure : (string * float) list;
      (** this class's own rate·demand/capacity per resource *)
  resource_caps : (string * float) list;
      (** this class's byte/s ceiling per demanded resource *)
  model_p99 : float option;
      (** joint-tail p99 seconds ({!Lognic.Extensions.mixed_tail}) *)
}

type interference_edge = {
  victim : int;  (** class index in mix order *)
  aggressor : int;
  contribution : float;  (** M_victim,aggressor · pressure_aggressor *)
}

type report = {
  base : Explain.mix_report;  (** the model-vs-sim join *)
  per_class : class_info list;  (** mix order, same length as classes *)
  ranked : interference_edge list;  (** highest contribution first *)
}

val run :
  ?config:Netsim.config ->
  ?queue_model:Lognic.Latency.queue_model ->
  ?contention:Lognic.Extensions.contention ->
  Lognic.Graph.t ->
  hw:Lognic.Params.hardware ->
  mix:Lognic.Traffic.mix ->
  report
(** Without [?contention] the report still joins model and simulation
    per class and entity (all slowdowns 1, empty interference ranking)
    — and runs the {e identical} simulation a plain {!Netsim.run} with
    the same config would (held by the [extensions-optimizer] test
    "contention: off is byte-identical to a plain run"). Raises
    [Invalid_argument] like {!Explain.run_mix}, plus the contention
    validation of {!Lognic.Extensions.mixed_traffic}. *)

val to_json : report -> Telemetry.Json.t
(** Versioned [kind:"contention"]: aggregate model/sim blocks, the
    per-class rows (explain fields + slowdown/pressure/resource_caps/
    model_p99), the ranked [interference] array, and the [entities]
    ranking. *)

val pp : Format.formatter -> report -> unit
