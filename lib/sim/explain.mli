(** The model-vs-simulation "explain" engine behind [lognic explain].

    One call runs the analytic model ({!Lognic.Estimate}) and the
    packet-level simulator ({!Netsim}) on the {e same} graph, hardware
    and traffic, joins the two per entity (every finite-throughput
    vertex, the shared interface and memory media, each dedicated
    link), and attributes the prediction residual: analytic utilization
    vs simulated busy fraction, the model's queueing term (converted to
    an expected queue depth via Little's law) vs the simulator's
    sampled queue depths, plus drops/rejections per entity.

    The report ranks entities by simulated utilization; the top entity
    is the simulator's answer to "what binds?", compared against the
    analytic roofline's binding term ({!Lognic.Throughput.bound}). On a
    well-calibrated graph the two agree — [agree = false] is itself a
    diagnostic (the queueing abstraction or routing scaling is off for
    some entity, visible in that entity's residual). *)

type entity_row = {
  name : string;  (** vertex label, "interface", "memory", "link-S-D" *)
  model_utilization : float;  (** attained rate / entity roofline cap *)
  sim_utilization : float;  (** horizon-clipped busy fraction *)
  residual : float;  (** sim − min(model, 1) *)
  model_queueing : float option;  (** Q_i seconds (vertices only) *)
  model_queue_depth : float option;
      (** Little's-law expected packets in system (vertices only) *)
  sim_queue_depth : float option;
      (** mean of the sampled depth/backlog series, when sampled *)
  model_drop_probability : float option;  (** M/M/1/N blocking (vertices) *)
  drops : int;  (** node drops / medium rejections over the whole run *)
}

type report = {
  model : Lognic.Estimate.report;
  measurement : Netsim.measurement;
  rows : entity_row list;  (** ranked, highest simulated utilization first *)
  model_bottleneck : string;
  sim_bottleneck : string;  (** [rows]' top entity, or "none" *)
  agree : bool;
  model_throughput : float;  (** attained bytes/s *)
  sim_throughput : float;
  throughput_error : float;  (** relative, in [0, 1] *)
  model_latency : float;  (** mean seconds *)
  sim_latency : float;
  latency_error : float;
}

val bound_name : Lognic.Graph.t -> Lognic.Throughput.bound -> string
(** The entity name a throughput bound pins ("offered-load" for
    {!Lognic.Throughput.Offered_load}), matching {!entity_row.name}. *)

val relative_error : model:float -> sim:float -> float
(** |model − sim| / max(|model|, |sim|), 0 when both are 0 — the join
    convention shared with {!Resilience}. *)

val run :
  ?config:Netsim.config ->
  ?queue_model:Lognic.Latency.queue_model ->
  Lognic.Graph.t ->
  hw:Lognic.Params.hardware ->
  traffic:Lognic.Traffic.t ->
  report
(** Runs both sides and joins them. When [config] leaves
    [sample_interval] unset, it defaults to [duration/256] so the
    queue-depth comparison has data. Raises [Invalid_argument] if the
    graph fails validation. *)

val to_json : report -> Telemetry.Json.t

val pp : Format.formatter -> report -> unit
(** The human-readable ranked table. *)

(** {2 Traffic mixes} *)

type class_row = {
  c_traffic : Lognic.Traffic.t;
  c_weight : float;  (** normalized mix weight *)
  c_model_throughput : float;  (** this class's carried bytes/s *)
  c_sim_throughput : float;  (** delivered bytes over the window *)
  c_throughput_error : float;
  c_model_latency : float;
  c_sim_latency : float option;
      (** [None] when the simulator delivered no packets of the class *)
  c_latency_error : float option;
  c_model_bottleneck : string;
      (** the class's binding entity, {!bound_name} convention (may be
          ["resource:NAME"] under contention) *)
}

type mix_report = {
  mix_model : Lognic.Extensions.mixed_report;
  mix_measurement : Netsim.measurement;
  class_rows : class_row list;  (** mix order *)
  mix_rows : entity_row list;
      (** joint per-entity residuals — model utilization is the summed
          carried rate over the entity's (traffic-independent) cap *)
  mix_model_bottleneck : string;
      (** bound of the class with the tightest joint capacity *)
  mix_sim_bottleneck : string;
  mix_agree : bool;
  mix_model_throughput : float;  (** Σ per-class carried bytes/s *)
  mix_sim_throughput : float;
  mix_throughput_error : float;
  mix_model_latency : float;
  mix_sim_latency : float;
  mix_latency_error : float;
}

val run_mix :
  ?config:Netsim.config ->
  ?queue_model:Lognic.Latency.queue_model ->
  ?contention:Lognic.Extensions.contention ->
  Lognic.Graph.t ->
  hw:Lognic.Params.hardware ->
  mix:Lognic.Traffic.mix ->
  mix_report
(** {!run} generalized to a traffic mix: the joint multi-class model
    ({!Lognic.Estimate.run_mix}) against one multi-class simulation,
    joined per class (residual rows) and per entity. Defaults
    [sample_interval] like {!run}. *)

val row_to_json : int -> entity_row -> Telemetry.Json.t
(** One entity row at the given rank — shared with {!Contention}. *)

val class_row_to_json : int -> class_row -> Telemetry.Json.t
(** One class row at the given index — shared with {!Contention}. *)

val mix_to_json : mix_report -> Telemetry.Json.t
(** Versioned [kind:"explain"] JSON with a [classes] array next to the
    [entities] ranking — field-compatible with {!to_json} plus the
    per-class rows. *)

val pp_mix : Format.formatter -> mix_report -> unit

(** {2 Multi-tenant runs}

    One tenanted simulation joined against the weighted multi-class
    analytic decomposition ({!Lognic_queueing.Wmmcn}) — what
    [lognic tenants] prints. *)

type tenant_row = {
  tn_name : string;
  tn_weight : int;
  tn_share : float;  (** configured normalized offered-traffic share *)
  tn_model_throughput : float;
      (** carried bytes/s the analytic decomposition predicts for this
          tenant ([share × attained] when undifferentiated) *)
  tn_sim_throughput : float;
  tn_throughput_error : float;
  tn_model_latency : float;
      (** aggregate model latency with the bottleneck vertex's wait
          replaced by this tenant's weighted-M/M/c/N wait (equal to the
          aggregate when undifferentiated) *)
  tn_sim_latency : float option;
      (** [None] when the simulator delivered none of this tenant's
          packets *)
  tn_latency_error : float option;
  tn_model_blocking : float option;
      (** this tenant's M/M/c/N blocking probability; [None] when the
          bottleneck is not an IP vertex *)
  tn_slo_p99 : float option;
  tn_slo_ok : bool option;  (** the simulator's verdict ({!Tenant.row}) *)
}

type tenant_report = {
  tr_stats : Tenant.stats;  (** the simulator's per-tenant attribution *)
  tr_measurement : Netsim.measurement;
  tr_rows : tenant_row list;  (** canonical (name-sorted) tenant order *)
  tr_model_bottleneck : string;
  tr_differentiated : bool;
      (** [true] iff the bottleneck is an IP vertex, where the shared
          engine pool admits the per-tenant weighted-M/M/c/N
          decomposition; other bounds serve tenants indistinguishably *)
  tr_model_throughput : float;
  tr_sim_throughput : float;
  tr_throughput_error : float;
  tr_model_latency : float;
  tr_sim_latency : float;
  tr_latency_error : float;
  tr_fairness : Tenant.fairness;
}

val run_tenants :
  ?config:Netsim.config ->
  ?queue_model:Lognic.Latency.queue_model ->
  Lognic.Graph.t ->
  hw:Lognic.Params.hardware ->
  traffic:Lognic.Traffic.t ->
  tenants:Tenant.set ->
  tenant_report
(** Run one simulation with [config.tenants = Some tenants] (any
    [tenants] already in [config] is replaced) and join the per-VF
    attribution against the analytic per-tenant decomposition at the
    model's bottleneck. *)

val tenants_to_json : tenant_report -> Telemetry.Json.t
(** Versioned [kind:"tenants"] JSON: the model/sim aggregate join, one
    row per tenant, and the full simulator detail
    ({!Tenant.stats_to_json}) under [sim_detail]. *)

val pp_tenants : Format.formatter -> tenant_report -> unit

(** {2 Flow cache}

    The joined model/sim report for the state-dependent (feedback)
    split scenario: {!Lognic.Flowcache.evaluate}'s fixed point on the
    model side against a simulation whose per-packet routing at the
    cache vertices comes from actual EMC/megaflow lookups
    ({!Flow_cache}). *)

type flowcache_class_row = {
  fr_name : string;  (** ["hot"], ["warm"] or ["cold"] *)
  fr_model_share : float;
  fr_sim_share : float;
  fr_model_mean : float;
  fr_sim_mean : float option;
      (** [None] when the simulator delivered no packets of this class *)
  fr_mean_error : float option;
  fr_model_p99 : float;
  fr_sim_p99 : float option;
      (** log₂-bucket estimate — good to a factor of 2 *)
}

type flowcache_report = {
  fc_model : Lognic.Flowcache.result;
  fc_stats : Flow_cache.stats;  (** the simulator's per-class attribution *)
  fc_measurement : Netsim.measurement;
  fc_bottleneck : string;
  fc_model_throughput : float;
  fc_sim_throughput : float;
  fc_throughput_error : float;
  fc_model_latency : float;
  fc_sim_latency : float;
  fc_latency_error : float;
  fc_emc_hit_error : float;
      (** |model − sim| hit-ratio difference (absolute: the ratios live
          in [0, 1], where a relative error at a near-zero miss share
          would mislead) *)
  fc_mega_hit_error : float;
  fc_overall_hit_error : float;
  fc_rows : flowcache_class_row list;  (** hot, warm, cold *)
}

val run_flowcache :
  ?config:Netsim.config ->
  ?queue_model:Lognic.Latency.queue_model ->
  Lognic.Flowcache.spec ->
  Lognic.Graph.t ->
  hw:Lognic.Params.hardware ->
  traffic:Lognic.Traffic.t ->
  flowcache_report
(** Solve the model's fixed point, then run one simulation of the
    {e converged} graph with [config.flow_cache = Some spec] (any spec
    already in [config] is replaced; the converged δs keep the sim's
    reach-probability byte scaling consistent with the model), and join
    the two: hit ratios, aggregate throughput/latency, and per-class
    rows. Raises like {!Lognic.Flowcache.evaluate} and {!Netsim.execute}. *)

val flowcache_to_json : flowcache_report -> Telemetry.Json.t
(** Versioned [kind:"flowcache"] JSON: model and sim hit ratios with
    absolute differences, the aggregate join, one row per class, and
    the full simulator detail ({!Flow_cache.stats_to_json}) under
    [sim_detail]. *)

val pp_flowcache : Format.formatter -> flowcache_report -> unit
