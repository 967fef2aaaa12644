(** Parameter sensitivity analysis.

    §2.3 motivates LogNIC with design-space exploration: which knob is
    worth turning? This module answers quantitatively by computing
    {e elasticities} — the percentage change in an output per percent
    change in a parameter, estimated by central finite differences
    through the model. An elasticity of 1.0 for (throughput, P_v3)
    means vertex 3's compute rate is the binding constraint; 0 means
    slack. Latency elasticities are typically negative for capacity
    parameters (more capacity, less queueing).

    Elasticities make bottleneck attribution continuous: where
    {!Throughput.result.bottleneck} names the single binding min-term,
    the elasticity vector also exposes near-ties and the latency side. *)

type parameter =
  | P_vertex of Graph.vertex_id  (** a vertex's P throughput *)
  | Bw_interface
  | Bw_memory
  | Offered_rate  (** BW_in *)

type elasticity = {
  parameter : parameter;
  throughput_elasticity : float;
      (** d ln(carried) / d ln(parameter) — 0 for slack resources, ~1
          for the binding one *)
  latency_elasticity : float;  (** d ln(mean latency) / d ln(parameter) *)
}

val analyze :
  ?queue_model:Latency.queue_model ->
  ?jobs:int ->
  Graph.t ->
  hw:Params.hardware ->
  traffic:Traffic.t ->
  elasticity list
(** Elasticities for every finite-throughput vertex plus the two shared
    media and the offered load, via central differences with a relative
    step of 2%%. Uses the blocking-discounted carried rate as
    the throughput output. [jobs] (default the global setting) computes
    per-parameter differences in parallel; the row order is unchanged. *)

val most_binding : elasticity list -> parameter
(** The parameter with the largest throughput elasticity — "upgrade
    this first". *)

val pp_parameter : Graph.t -> Format.formatter -> parameter -> unit
