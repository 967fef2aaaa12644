(** The multi-resource contention report behind [lognic contention].

    Runs the joint multi-class model with the interference layer
    ({!Lognic.Extensions.mixed_traffic} via {!Explain.run}) against one
    multi-class simulation. The report is explain's ({!Explain.report}:
    the aggregate join, both bottlenecks, per-entity residual rows
    ranked by simulated utilization) plus:

    - per class: the model-vs-sim residuals (throughput and latency),
      the contention slowdown, the per-resource pressure and byte
      ceilings, and the model p99 on the union queues;
    - a ranked interference report: victim←aggressor pairs ordered by
      their slowdown contribution M_ij · pressure_j.

    The JSON ([schema = "contention"]) opens with explain's head
    ({!Explain.head_json}) and always carries the per-class rows, even
    for a one-class mix. *)

type class_info = {
  slowdown : float;  (** ≥ 1; 1 without a contention spec *)
  pressure : (string * float) list;
      (** this class's own rate·demand/capacity per resource *)
  resource_caps : (string * float) list;
      (** this class's byte/s ceiling per demanded resource *)
  model_p99 : float;
      (** joint-tail p99 seconds: {!Lognic.Tail.evaluate} on the
          class's joint latency, whose union queues it reads *)
}

type interference_edge = {
  victim : int;  (** class index in mix order *)
  aggressor : int;
  contribution : float;  (** M_victim,aggressor · pressure_aggressor *)
}

type report = {
  base : Explain.report;  (** the model-vs-sim join *)
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
    — and runs the {e identical} simulation a plain {!Netsim.execute}
    of the same spec would (held by the [extensions-optimizer] test
    "contention: off is byte-identical to a plain run"). Raises
    [Invalid_argument] like {!Explain.run}, plus the contention
    validation of {!Lognic.Extensions.mixed_traffic}. *)

val to_json : report -> Telemetry.Json.t
(** Versioned [kind:"contention"]: explain's head, the
    per-class rows (explain fields + slowdown/pressure/resource_caps/
    model_p99), the ranked [interference] array, and the [entities]
    ranking. *)

val pp : Format.formatter -> report -> unit
