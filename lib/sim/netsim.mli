(** The bridge from a LogNIC execution graph to a runnable packet-level
    simulation — our stand-in for the paper's hardware testbeds (see
    DESIGN.md, substitutions).

    The simulator instantiates exactly the entities the model abstracts:
    one {!Ip_node} per finite-throughput vertex ([D] engines sharing
    γ·A·P, an N-entry bounded queue, drops when full), one shared
    {!Medium} each for the SoC interface and the memory subsystem, one
    private medium per dedicated-bandwidth edge, and fixed per-vertex
    computation-transfer overheads. Packets are routed at fan-out
    vertices with probabilities proportional to the out-edge δ, and the
    per-packet work/transfer quantities are scaled so that aggregate
    loads match the model's W-fractions: a packet crossing edge [e]
    (probability [p_e]) moves [size·α_e/p_e] bytes over the interface,
    [size·β_e/p_e] through memory, and costs its destination
    [size·Σδ_in/p_v] bytes of processing.

    Every run is fully observable: drops are attributed to the queue or
    medium buffer that shed them, and each delivered packet's latency
    is decomposed into queueing / service / wire / overhead components
    (the Eq. 2 terms). Each in-flight packet carries one {!Hop.t}
    ledger: nodes, media and the walk's vertex overheads add its terms
    and, for a traced packet, record its spans, through that one
    argument. Periodic queue-depth / busy-engine / backlog
    samples come from the metrics layer: [config.metrics] attaches the
    gauges, and {!Metrics.series} holds their histories.

    {b Entry points.} {!Run.t} is the single run spec — graph, hardware,
    traffic mix, config, and fault plan in one record — executed by
    {!execute} / {!execute_replicated}.

    {b Layers.} This module owns the packet walk (arrive → route →
    traverse → deliver/drop); each optional layer lives in its own
    module and is hooked in only when configured:
    - faults: {!Faults.realize} (one event per fault span, burst sheds,
      birth-bin accounting, {!Faults.summarize});
    - invariants: {!Invariants} (per-packet and per-admission checks,
      {!Invariants.check_horizon} at the end of the run);
    - metrics: {!Metrics.attach} (the instrument catalog and its ticks,
      read-only views of the run's accounts);
    - tracing: {!Trace} (reservoir-sampled packet spans);
    - tenants: {!Tenant} (per-VF rows of a {!Telemetry.Table}; at two
      tenants or more, hierarchical nodes and a tenant rng);
    - flow cache: {!Flow_cache} (cache-vertex roles, flow draws, the
      lookups that route out of the cache vertices).

    A {!config} is a [private] record: its fields are readable, but
    {!Config.default} and the {!Config} setters are the only way to
    build or update one. *)

type config = private {
  seed : int;
  duration : float;  (** simulated seconds (default 0.1) *)
  warmup : float;  (** discarded prefix (default 10% of duration) *)
  service_dist : Ip_node.service_dist;  (** default [Exponential] *)
  arrival : Traffic_gen.arrival;  (** default [Poisson] *)
  trace : Trace.config option;
      (** when [Some], record per-packet lifecycle spans for a
          reservoir-sampled subset of packets into
          {!measurement.trace} (default [None]). The trace rng is split
          from the run seed after every other stream, so enabling
          tracing never changes any measured quantity. *)
  check_invariants : bool;
      (** when [true], validate the run's conservation laws
          ({!Invariants}) at every hook point — packet fates, queue and
          buffer bounds, event-time monotonicity, entity utilization,
          summary self-consistency — and attach the structured report
          as {!measurement.invariants} (default [false]). Checking is
          read-only: it never changes a measured quantity, and the
          disabled path adds no work to the simulator hot loop
          (held by the [layers_neutral_identity] property and by the
          [invariants_hold_everywhere] property too). *)
  metrics : Metrics.config option;
      (** when [Some], sample a live metrics registry every
          [interval] sim-seconds, evaluate its SLO rules, keep each
          gauge's history ({!Metrics.series}), and attach the instance
          as {!measurement.metrics} (default [None]).
          Every instrument, the latency histogram included, is a
          read-only view of the run's accounts (no per-delivery hook)
          and no rng stream is split, so enabling metrics never changes
          simulation results
          or measurement JSON (held by the [metrics] test
          "measurement JSON identical with metrics on/off"). *)
  tenants : Tenant.set option;
      (** when [Some], run multi-tenant: every arrival is attributed to
          a tenant drawn by the set's offered-traffic shares, per-VF
          telemetry accumulates into {!measurement.tenants}, and — at
          two tenants or more — every finite-throughput vertex swaps
          its queue for the SR-IOV two-stage arbiter
          ({!Ip_node.create_hierarchical}: one queue group per tenant,
          one queue per traffic class, packet-granular WRR across
          groups by tenant weight). A {e single}-tenant set keeps the
          untenanted scheduler and rng streams, so its measurement JSON
          is byte-identical to [tenants = None] (held by the
          [layers_neutral_identity] property); for [>= 2] tenants the
          tenant rng is split after the fault rng and before the trace
          rng. Default [None]. *)
  flow_cache : Lognic.Flowcache.spec option;
      (** when [Some], run with state-dependent splits: every arriving
          packet draws a flow id from the spec's Zipf population (a
          dedicated flow rng, split after the tenant rng and before the
          trace rng), and the route out of the vertices labelled
          [Flowcache.emc_label] / [Flowcache.megaflow_label] is decided by an
          actual {!Flow_cache} lookup — hit takes the {e first}
          out-edge, miss the second; the static δs on those edges are
          ignored. Per-class (hot/warm/cold) telemetry accumulates into
          {!measurement.flow_cache}. Disabled runs are byte-identical
          to runs without the feature (held by the
          [layers_neutral_identity] property). Both cache vertices
          must exist, with exactly two out-edges, or the run raises
          [Invalid_argument]. Default [None]. *)
}

(** The only way to assemble a {!config}: start from {!Config.default}
    and chain setters, e.g.
    [Config.(default |> with_horizon 0.5 |> with_seed 7)]. Setters take
    the config {e last} so they pipeline. *)
module Config : sig
  type t = config

  val default : t
  (** Seed 1, 0.1 s horizon with a 0.01 s warmup, Poisson arrivals,
      exponential service, every optional layer off. *)

  val with_seed : int -> t -> t

  val with_horizon : ?warmup:float -> float -> t -> t
  (** [with_horizon d] sets [duration = d] and [warmup] to the
      conventional 10% of it (override with [?warmup]) — the common
      way a run's time axis is configured. *)

  val with_service_dist : Ip_node.service_dist -> t -> t
  val with_arrival : Traffic_gen.arrival -> t -> t

  val with_trace : Trace.config -> t -> t
  val with_invariants : bool -> t -> t
  val with_metrics : Metrics.config -> t -> t
  val with_tenants : Tenant.set -> t -> t
  val with_flow_cache : Lognic.Flowcache.spec -> t -> t
  val without_flow_cache : t -> t
end

(** The unified run specification: everything one simulation needs, as
    one value. Build with {!Run.make}/{!Run.single}, refine with the
    [with_*] setters (each returns an updated copy), execute with
    {!execute}. *)
module Run : sig
  type t = {
    graph : Lognic.Graph.t;
    hw : Lognic.Params.hardware;
    mix : Lognic.Traffic.mix;
    config : config;
    faults : Faults.plan;
  }

  val make :
    ?config:config ->
    ?faults:Faults.plan ->
    Lognic.Graph.t ->
    hw:Lognic.Params.hardware ->
    mix:Lognic.Traffic.mix ->
    t
  (** [config] defaults to {!Config.default}, [faults] to
      {!Faults.empty}. *)

  val single :
    ?config:config ->
    ?faults:Faults.plan ->
    Lognic.Graph.t ->
    hw:Lognic.Params.hardware ->
    traffic:Lognic.Traffic.t ->
    t
  (** Single-class convenience: [mix = [(traffic, 1.)]]. *)

  val with_config : t -> config -> t
  val with_faults : t -> Faults.plan -> t
end

type vertex_stats = {
  vid : Lognic.Graph.vertex_id;
  vlabel : string;
  drops : int;  (** whole-run drops at this node (not warmup-windowed) *)
  queue_drops : int array;  (** same, split by queue index *)
  completions : int;
  utilization : float;  (** horizon-clipped; never exceeds 1 *)
}

type medium_stats = {
  mlabel : string;  (** "interface", "memory", or "link-SRC-DST" *)
  m_utilization : float;  (** horizon-clipped; never exceeds 1 *)
  m_busy : float;  (** busy seconds within the horizon *)
  m_rejections : int;  (** whole-run buffer rejections *)
}

type measurement = {
  summary : Telemetry.summary;
  vertex_stats : vertex_stats list;
  medium_stats : medium_stats list;
      (** interface, memory, then dedicated links in edge order; the
          first two rows are the shared media's utilization. Drops per
          site are [summary.drop_breakdown]. *)
  generated : int;  (** packets offered over the whole run *)
  fault_intervals : Faults.interval_stats list;
      (** chronological, tiling [\[0, duration)]; empty for an empty
          fault plan *)
  resilience : Faults.resilience option;
      (** present iff the plan had at least one fault active before the
          horizon *)
  trace : Trace.t option;
      (** the packet-span reservoir, present iff [config.trace] was set;
          export with {!Trace.to_chrome_json}. Deliberately absent from
          {!measurement_to_json} so measurement JSON is byte-identical
          with tracing on or off. *)
  invariants : Invariants.report option;
      (** the conservation-law report, present iff
          [config.check_invariants] was set; export with
          {!Invariants.report_to_json}. Like [trace], deliberately
          absent from {!measurement_to_json} so measurement JSON is
          byte-identical with checking on or off. *)
  metrics : Metrics.t option;
      (** the live metrics instance after its final tick, present iff
          [config.metrics] was set; query {!Metrics.alerts}, export
          with {!Metrics.to_openmetrics} / {!Metrics.alerts_to_json} /
          {!Metrics.profile_to_json} (snapshots stream through
          [config.metrics.on_snapshot] during the run). Like [trace],
          deliberately absent from {!measurement_to_json} so
          measurement JSON is byte-identical with metrics on or off. *)
  tenants : Tenant.stats option;
      (** per-tenant attribution and fairness indices, present iff
          [config.tenants] was set; export with
          {!Explain.tenants_to_json} (or embed via
          {!Tenant.stats_to_json}). Per-tenant offered / delivered /
          dropped counts sum exactly to the aggregate
          warmup-windowed telemetry. Like [trace], deliberately absent
          from {!measurement_to_json}. *)
  flow_cache : Flow_cache.stats option;
      (** measured hit ratios and per-class (hot/warm/cold) latency
          rows, present iff [config.flow_cache] was set; export with
          [Explain.flowcache_to_json] (or embed via
          {!Flow_cache.stats_to_json}). Like [trace], deliberately
          absent from {!measurement_to_json}. *)
}

val execute_with : ?engine:Engine.t -> Run.t -> measurement
(** {!execute} with an optional caller-owned engine, for callers that
    time or profile many runs on one engine (the ledger). The engine is
    {!Engine.reset} before use, which keeps its event-queue storage
    across runs. Reuse is result-identical: the queue pops in exact
    (time, push order) order whatever storage it inherited. Do {e not}
    share one engine across concurrently-executing runs. *)

val execute : Run.t -> measurement
(** Run one simulation from a spec. Raises [Invalid_argument] if the
    duration is not positive and finite, the graph fails validation,
    the metrics interval is not positive and finite, or a fault event
    targets an entity the realized simulation does not have (unknown
    vertex label, infinite-throughput vertex, unknown medium label),
    or a vertex's service time for one packet of some class overflows
    to infinity ({!Lognic.Graph.unservable}).

    {b Determinism.} With [faults = Faults.empty] the measurement is
    byte-identical to a run without the fault layer (no fault rng is
    split, no per-packet accounting is added — held by the [faults]
    test [empty_plan_identity]).
    With any plan, results are bit-identical at every [--jobs]: the
    fault rng is its own stream, split after the per-node rngs and
    before the tenant and trace rngs, and is drawn only while a
    [Drop_burst] is active — so a non-empty plan can perturb at most
    which packets the optional trace reservoir samples, never a
    measured quantity. The rng split order is: generator, router,
    per-node (graph order), fault (iff a plan), tenant (iff >= 2
    tenants), flow (iff a flow cache), trace (iff tracing) — each
    optional stream splits only when its feature is on, so switching a
    feature off restores the exact streams of a run that never had
    it. *)

val run_single :
  ?config:config ->
  Lognic.Graph.t ->
  hw:Lognic.Params.hardware ->
  traffic:Lognic.Traffic.t ->
  measurement
(** [execute (Run.single ?config g ~hw ~traffic)]. *)

val measurement_to_json : measurement -> Telemetry.Json.t
(** The full measurement — summary, per-entity stats, drop sites,
    fault intervals — as one versioned JSON object
    ([schema = "measurement"], see {!Telemetry.Json.versioned}; what
    [lognic report --trace] writes). *)

type entity_replicated = {
  entity : string;  (** vertex label or medium label *)
  utilization_mean : float;
  drops_mean : float;  (** node drops / medium rejections per run *)
}

type replicated = {
  runs : int;
  throughput_mean : float;
  throughput_stddev : float;
  latency_mean : float;
  latency_stddev : float;
  loss_mean : float;
  entities : entity_replicated list;
      (** per-entity across-run means (vertices first, then media) *)
  resilience : Faults.resilience_replicated option;
      (** across-run recovery-time / worst-interval statistics; [None]
          for fault-free replications *)
}

val replications : ?jobs:int -> runs:int -> Run.t -> measurement list
(** [runs] independent replications of the spec, in order: replication
    [i] is a fresh {!execute} with seed [config.seed + i] (so
    replication 0 is the spec itself), run on the domain pool
    ({!Lognic_numerics.Parallel.map}, [jobs] workers) and bit-identical
    at every [jobs]. *)

val execute_replicated : ?jobs:int -> ?runs:int -> Run.t -> replicated
(** [runs] (default 5) {!replications} of the spec; reports across-run
    means and sample standard deviations, per-entity means,
    and (for faulted specs) recovery statistics. Results are
    bit-identical at every [jobs]. Raises [Invalid_argument] when
    [runs < 2]. *)
