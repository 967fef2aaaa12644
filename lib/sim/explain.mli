(** The model-vs-simulation "explain" engine behind [lognic explain],
    and the aggregate join every model-vs-sim report shares.

    {!run} runs the analytic model ({!Lognic.Estimate.run_mix}) and the
    packet-level simulator ({!Netsim}) on the {e same} graph, hardware
    and traffic mix. A single traffic is the one-class mix
    [[ (traffic, 1.) ]]; the one-class joint model is bit-for-bit
    {!Lognic.Estimate.run}. The two sides are joined three ways:

    - in aggregate ({!join}): throughput, mean latency and their
      relative errors;
    - per class, when the mix has two or more classes (a one-class row
      would repeat the aggregate);
    - per entity (every finite-throughput vertex, the shared interface
      and memory media, each dedicated link): analytic utilization vs
      simulated busy fraction, the model's queueing term (converted to
      an expected queue depth via Little's law) vs the simulator's
      sampled queue depths, plus drops/rejections per entity.

    The entity table is ranked by simulated utilization; the top entity
    is the simulator's answer to "what binds?", compared against the
    analytic roofline's binding term ({!Lognic.Throughput.bound}). On a
    well-calibrated graph the two agree — [agree = false] is itself a
    diagnostic (the queueing abstraction or routing scaling is off for
    some entity, visible in that entity's residual).

    {!Contention}, {!run_tenants} and {!run_flowcache} report the same
    aggregate {!join} next to their own rows. *)

type entity_row = {
  name : string;  (** vertex label, "interface", "memory", "link-S-D" *)
  model_utilization : float;  (** attained rate / entity roofline cap *)
  sim_utilization : float;  (** horizon-clipped busy fraction *)
  residual : float;  (** sim − min(model, 1) *)
  model_queueing : float option;  (** Q_i seconds (vertices only) *)
  model_queue_depth : float option;
      (** Little's-law expected packets in system (vertices only) *)
  sim_queue_depth : float option;
      (** mean of the run's [NAME.queue_depth] (vertex) or
          [NAME.backlog_bytes] (medium) gauge history
          ({!Metrics.series}); [None] without one *)
  model_drop_probability : float option;  (** M/M/1/N blocking (vertices) *)
  drops : int;  (** node drops / medium rejections over the whole run *)
}

(** {2 The compared quantity}

    Every model-vs-sim row of every join report holds each compared
    quantity as one {!pair}. *)

type pair = {
  model : float;
  sim : float option;
      (** [None] when the row delivered no packet (a latency has no
          sim side then) *)
  error : float option;  (** {!relative_error}, present with [sim] *)
}

val relative_error : model:float -> sim:float -> float
(** |model − sim| / max(|model|, |sim|), 0 when both are 0 and 1 when
    the model side is not finite (an M/M/1 queue past ρ = 1 predicts an
    infinite latency). *)

val pair : model:float -> sim:float option -> pair
(** The one place a join applies {!relative_error}. *)

val if_delivered : int -> float -> float option
(** The delivered rule: [if_delivered delivered x] is [Some x] when the
    row delivered a packet, [None] otherwise — a row that delivered
    nothing has no sim latency, so its latency error is absent rather
    than 100%. *)

val pair_fields : string -> pair -> (string * Telemetry.Json.t) list
(** [pair_fields n p] is [p]'s JSON fields [model_n], [sim_n] and
    [n_error], in that order; an absent side writes [null]. *)

val cell : ('a -> string, unit, string) format -> 'a option -> string
(** A table cell: the value in the given format, or ["-"] when
    absent. *)

val error_cell : (float -> string, unit, string) format -> pair -> string
(** A pair's error as a percentage {!cell}: [error_cell "%.1f%%" p]. *)

(** {2 The aggregate join} *)

type join = {
  throughput : pair;
      (** attained bytes/s against delivered bytes/s over the window *)
  latency : pair;
      (** mean seconds; the sim side follows {!if_delivered}, so a run
          that delivered nothing has no sim latency *)
}

(** {2 Explain} *)

type class_row = {
  c_traffic : Lognic.Traffic.t;
  c_weight : float;  (** normalized mix weight *)
  c_throughput : pair;
      (** this class's carried bytes/s against its delivered bytes over
          the window *)
  c_latency : pair;
  c_model_bottleneck : string;
      (** the class's binding entity, named like {!entity_row.name}
          (["offered-load"] when the offered load binds; may be
          ["resource:NAME"] under contention) *)
}

type report = {
  model : Lognic.Extensions.mixed_report;
  measurement : Netsim.measurement;
  join : join;  (** model throughput is Σ per-class carried bytes/s *)
  class_rows : class_row list;  (** mix order *)
  rows : entity_row list;
      (** ranked, highest simulated utilization first; model utilization
          is the summed carried rate over the entity's
          (traffic-independent) cap *)
  model_bottleneck : string;
      (** bound of the class with the tightest joint capacity *)
  sim_bottleneck : string;  (** [rows]' top entity, or "none" *)
  agree : bool;
}

val run :
  ?config:Netsim.config ->
  ?queue_model:Lognic.Latency.queue_model ->
  ?contention:Lognic.Extensions.contention ->
  Lognic.Graph.t ->
  hw:Lognic.Params.hardware ->
  mix:Lognic.Traffic.mix ->
  report
(** Runs both sides and joins them. When [config] leaves [metrics]
    unset, the run attaches {!Metrics.default_config} at a
    [duration/256] interval so the queue-depth comparison has data.
    Raises [Invalid_argument] if the graph fails validation, and like
    {!Lognic.Estimate.run_mix}. *)

val row_to_json : int -> entity_row -> Telemetry.Json.t
(** One entity row at the given rank — shared with {!Contention}. *)

val class_row_fields : int -> class_row -> (string * Telemetry.Json.t) list
(** One class row's JSON fields at the given index — {!Contention}
    appends its own. *)

val head_json :
  kind:string -> report -> (string * Telemetry.Json.t) list -> Telemetry.Json.t
(** Versioned [kind] JSON opening with explain's head — [model] and
    [sim] (the join's throughput and latency plus each side's
    [bottleneck]), [agree], and the two errors — followed by the given
    fields. {!Contention.to_json} writes its own report with it. *)

val to_json : report -> Telemetry.Json.t
(** Versioned [kind:"explain"] JSON: {!head_json}, a [classes] array
    when the mix has two or more classes, then the [entities]
    ranking. *)

val pp : Format.formatter -> report -> unit
(** The human-readable report: the join, both bottlenecks, the
    per-class table from two classes up, and the ranked entity
    table. *)

(** {2 Multi-tenant runs}

    One tenanted simulation joined against the weighted multi-class
    analytic decomposition ({!Lognic_queueing.Wmmcn}) — what
    [lognic tenants] prints. *)

type tenant_row = {
  tn_name : string;
  tn_weight : int;
  tn_share : float;  (** configured normalized offered-traffic share *)
  tn_throughput : pair;
      (** the model side is the carried bytes/s the analytic
          decomposition predicts for this tenant ([share × attained]
          when undifferentiated) *)
  tn_latency : pair;
      (** the model side is the aggregate model latency with the
          bottleneck vertex's wait replaced by this tenant's
          weighted-M/M/c/N wait (equal to the aggregate when
          undifferentiated) *)
  tn_model_blocking : float option;
      (** this tenant's M/M/c/N blocking probability; [None] when the
          bottleneck is not an IP vertex *)
  tn_slo_p99 : float option;
  tn_slo_ok : bool option;  (** the simulator's verdict ({!Tenant.row}) *)
}

type tenant_report = {
  tr_stats : Tenant.stats;  (** the simulator's per-tenant attribution *)
  tr_measurement : Netsim.measurement;
  tr_join : join;
  tr_rows : tenant_row list;  (** canonical (name-sorted) tenant order *)
  tr_model_bottleneck : string;
  tr_differentiated : bool;
      (** [true] iff the bottleneck is an IP vertex, where the shared
          engine pool admits the per-tenant weighted-M/M/c/N
          decomposition; other bounds serve tenants indistinguishably *)
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
  fr_mean : pair;  (** mean latency *)
  fr_model_p99 : float;
  fr_sim_p99 : float option;
      (** log₂-bucket estimate — good to a factor of 2; [None] when the
          simulator delivered no packets of this class *)
}

type flowcache_report = {
  fc_model : Lognic.Flowcache.result;
  fc_stats : Flow_cache.stats;  (** the simulator's per-class attribution *)
  fc_measurement : Netsim.measurement;
  fc_bottleneck : string;
  fc_join : join;
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
