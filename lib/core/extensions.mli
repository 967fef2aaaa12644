(** Model generalizations (§3.7).

    {b Extension #1 — consolidated execution graphs.} Multiple tenants
    offload different programs concurrently. Each tenant's graph is
    evaluated with its own traffic share; shared physical IPs are
    virtualized through the γ partition parameter, and shared-medium
    usage (α/β) aggregates across tenants, so one tenant's interface
    pressure degrades another's ceiling.

    {b Extension #2 — diverse traffic profiles.} When the application
    consumes several packet sizes, per-size execution graphs (C, δ and O
    vary with size) are evaluated jointly against the entities they
    share ({!mixed_traffic}); the paper's dist_size-weighted averages of
    Eqs 3 and 8 are recoverable from the per-class results.

    {b Extension #3 — non-work-conserving IPs.} A rate-limiter vertex —
    an enqueue/dequeue-only IP with a fixed-size queue — is inserted in
    front of the IP on its incoming edge; the queue captures the
    resource idleness. *)

type tenant = {
  name : string;
  graph : Graph.t;
  traffic : Traffic.t;  (** this tenant's own offered load and size *)
}

type tenant_report = {
  tenant : string;
  throughput : Throughput.result;
  latency : Latency.result;
}

type consolidated = {
  tenants : tenant_report list;
  total_attained : float;  (** Σ per-tenant carried bytes/s *)
  mean_latency : float;  (** traffic-weighted across tenants *)
  interface_utilization : float;
      (** Σ tenant α-bytes/s over BW_INTF; > 1 means the shared
          interface is oversubscribed *)
  memory_utilization : float;
}

val consolidate : hw:Params.hardware -> tenant list -> consolidated
(** Evaluates every tenant against shared media whose effective
    bandwidth is scaled down by the other tenants' α/β pressure.
    Raises [Invalid_argument] on an empty tenant list. *)

type class_contention = {
  slowdown : float;
      (** service-time dilation from co-located classes' pressure,
          ≥ 1; applied as A/slowdown on every finite vertex *)
  pressure : (string * float) list;
      (** this class's own per-resource pressure: rate·demand/capacity *)
  resource_caps : (string * float) list;
      (** this class's byte/s ceiling on each resource it demands:
          share·capacity/demand, where share is the offered-byte share *)
}

type contention = {
  demands : (string * float) list list;
      (** per class (mix order): (resource name, demand per offered
          byte). Resources must exist in {!Params.hardware.resources}. *)
  interference : float array array;
      (** M with zero diagonal; slowdown_i = 1 + Σ_{j≠i} M_ij ·
          pressure_j, so adding a co-located class can only slow the
          others down (monotone by construction) *)
}

val contention :
  demands:(string * float) list list ->
  interference:float array array ->
  contention
(** Validating constructor: one demand vector per class, an n×n matrix
    with zero diagonal and finite non-negative entries, finite
    non-negative demands with non-empty resource names. Raises
    [Invalid_argument] otherwise. *)

type mixed_report = {
  classes : (Traffic.t * float * Throughput.result * Latency.result) list;
      (** per class: normalized weight, capacity split by byte share
          (plus any contention resource cap), latency on the union
          queues *)
  throughput : float;  (** Σ per-class attained bytes/s *)
  latency : float;  (** Σ dist_size · T_attainable *)
  contention : class_contention list option;
      (** per-class slowdown/pressure report, [Some] iff a contention
          spec was supplied *)
}

val mixed_traffic :
  ?queue_model:Latency.queue_model ->
  ?contention:contention ->
  hw:Params.hardware ->
  graph_for:(Traffic.t -> Graph.t) ->
  Traffic.mix ->
  mixed_report
(** Joint multi-class evaluation (Extension #2 done properly): classes
    are evaluated against {e shared} entities, not private device
    copies. Entities are matched across the per-class graphs by vertex
    label / (src,dst) label pair / the two device media; each entity's
    capacity is split across its sharing classes by offered-byte share
    (weighted multi-class processor sharing), and each class's
    throughput ceiling is {!Throughput.evaluate} on its share-scaled
    graph. Latency feeds every shared vertex the {e union} of class
    arrival streams: λ = Σ λ_j and a packet-size-mixture service rate
    (λ-weighted harmonic mean of the per-class μ_j, with an M/G/1
    (1+SCV)/2 waiting inflation when the μ_j differ), via
    {!Latency.terms_of_rates}. The aggregate throughput is the {e sum}
    of per-class attained rates (the weight-averaged number the old
    behavior reported is recoverable as Σ wᵢ·attainedᵢ).

    A class that is the only user of an entity gets share 1 exactly, so
    a single-class mix is bit-for-bit identical to
    {!Throughput.evaluate} + {!Latency.evaluate} on the plain graph.

    With [?contention], co-located classes additionally dilate each
    other's service times (slowdown from the interference matrix and
    resource pressures) and each class's capacity is min'd with its
    share of every named resource ({!Throughput.Resource_bound}).
    Raises [Invalid_argument] on a demand-vector arity mismatch or a
    resource name absent from [hw.resources]. *)

type fixed_point_result = {
  value : float array;  (** the final (possibly unconverged) iterate *)
  iterations : int;  (** calls to [update] *)
  fp_converged : bool;
      (** the sup-norm residual of [value] fell to 1e-9 within 200
          iterations *)
}

val fixed_point :
  update:(float array -> float array) -> float array -> fixed_point_result
(** [fixed_point ~update x0] iterates the damped map
    x ← (1 − d)·x + d·update(x) from [x0] until the sup-norm residual
    ‖update(x) − x‖∞ is ≤ 1e-9, and returns that x, or until 200
    iterations elapse. The test reads the undamped residual, so a small
    d cannot fake convergence.

    d starts at 1 (plain iteration, which lands on a constant map's
    value bit for bit) and halves whenever the residual fails to
    shrink, so an oscillating map (a cache whose hit ratio rises when
    its arrival rate falls, and vice versa) is pulled back toward its
    fixed point; a contraction keeps its fixed points under any d. The
    state-dependent traffic-split solver ({!Flowcache.evaluate})
    iterates split fractions → per-stage rates → steady-state hit
    ratios through this. Raises [Invalid_argument] on a dimension
    change or a non-finite update component. *)

val insert_rate_limiter :
  Graph.t ->
  before:Graph.vertex_id ->
  rate:float ->
  queue_capacity:int ->
  Graph.t * Graph.vertex_id
(** [insert_rate_limiter g ~before ~rate ~queue_capacity] splices a
    rate-limiter IP onto every incoming edge of [before]: incoming edges
    are re-pointed at the new vertex and one edge (inheriting the summed
    δ and zero shared-media use) connects it to [before]. Returns the
    rewritten graph and the limiter's id. Raises [Invalid_argument] if
    [before] has no incoming edges or is not an IP vertex. *)
