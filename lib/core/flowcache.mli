(** State-dependent (feedback) traffic splits: the flow-cache offload
    scenario at production rule scale.

    An OVS-style datapath classifies each packet through an exact-match
    cache (EMC), falling back to a megaflow table and finally a
    slow-path round trip. The split fractions at the cache vertices are
    not free parameters — they {e are} the caches' steady-state hit
    ratios, which in turn depend on the per-stage arrival rates the
    splits produce. This module closes that loop: it iterates split
    fractions → per-stage rates → steady-state hit ratios to a fixed
    point ({!Extensions.fixed_point}) and evaluates the converged
    graph with the ordinary throughput/latency/tail machinery.

    Hit ratios come from Che's approximation for an LRU cache under the
    independent reference model: the characteristic time T solves
    Σᵢ (1 − exp(−rᵢT)) = C for per-flow reference rates rᵢ and capacity
    C entries, and flow i then hits with probability 1 − exp(−rᵢT).
    Pure-LRU hit ratios are timescale invariant (substitute u = rT), so
    without a TTL the fixed point lands on its target in the first,
    undamped step and confirms it in the second; an optional TTL θ (the
    OVS flow idle-timeout analogue) caps the characteristic time at θ
    and makes the hit ratio genuinely rate-dependent. The flow
    population is Zipf(s)-distributed — pᵢ ∝ 1/iˢ — matching the
    simulator's sampler ([Lognic_sim.Flow_cache]). *)

type spec = {
  flows : int;  (** flow population size (millions are fine) *)
  zipf : float;  (** Zipf skew s ≥ 0 (0 = uniform) *)
  emc_entries : int;  (** EMC capacity, entries *)
  megaflow_entries : int;  (** megaflow-table capacity, entries *)
  ttl : float option;
      (** optional idle timeout θ in seconds; entries idle longer than
          θ count as misses. [None] models pure LRU. *)
}

val emc_label : string
(** ["emc"]: the label of the EMC vertex, on both the model and the
    simulator side. *)

val megaflow_label : string
(** ["megaflow"]: the label of the megaflow vertex. *)

val spec :
  ?ttl:float ->
  ?zipf:float ->
  ?emc_entries:int ->
  ?megaflow_entries:int ->
  flows:int ->
  unit ->
  spec
(** Defaults: zipf 1.0, emc 8192 entries, megaflow 65536 entries, no
    TTL. Raises [Invalid_argument] on out-of-domain values (flows and
    capacities ≥ 1, zipf ≥ 0 and finite, ttl > 0 and finite). *)

val zipf_weights : flows:int -> s:float -> float array
(** Normalized Zipf popularity vector: pᵢ ∝ 1/(i+1)ˢ, descending. *)

val che_characteristic_time : rates:float array -> capacity:int -> float
(** The T solving Σᵢ (1 − exp(−rᵢT)) = C (Newton, monotone from
    below, to |f| ≤ 1e-12·C). [infinity] when the population fits
    ([n ≤ C]) or no flow has a positive rate. *)

val hit_ratios :
  ?ttl:float -> rates:float array -> capacity:int -> unit -> float array
(** Per-flow steady-state LRU hit probabilities 1 − exp(−rᵢ·T_eff),
    where T_eff is {!che_characteristic_time} capped at [ttl] θ. The
    occupancy Σᵢ (1 − exp(−rᵢθ)) is computed first: when it is ≤ C the
    TTL binds (the occupancy rises with T, so T ≥ θ) and the ratios at
    θ are returned with no Newton solve — the same bits as capping T,
    unless T lies within the solve's tolerance of θ. Raises
    [Invalid_argument] if [capacity < 1]. *)

type class_report = {
  klass : string;  (** ["hot"], ["warm"] or ["cold"] *)
  share : float;  (** fraction of delivered packets in this class *)
  class_mean : float;  (** mean end-to-end latency, seconds *)
  class_p99 : float;  (** p99 end-to-end latency, seconds *)
}

type result = {
  graph : Graph.t;  (** input graph with the converged split fractions *)
  emc_hit_ratio : float;  (** fraction of all packets hitting the EMC *)
  megaflow_hit_ratio : float;
      (** conditional: fraction of EMC misses hitting the megaflow *)
  overall_hit_ratio : float;  (** 1 − slow-path share *)
  iterations : int;
  converged : bool;
  throughput : Throughput.result;  (** plain evaluation of [graph] *)
  latency : Latency.result;
  classes : class_report list;  (** hot, warm, cold — in that order *)
}

val evaluate :
  ?queue_model:Latency.queue_model ->
  ?init:float array ->
  spec ->
  Graph.t ->
  hw:Params.hardware ->
  traffic:Traffic.t ->
  result
(** Fixed-point evaluation of the feedback splits. The graph must
    contain a vertex labelled {!emc_label} and one labelled
    {!megaflow_label}, each with exactly two out-edges; by
    convention the {e first} out-edge (in {!Graph.out_edges} insertion
    order) is the hit route and the second the miss route. Each
    iteration rewrites both splits with {!Graph.scale_out_split},
    re-evaluates the latency model to obtain the per-stage packet rates
    (path-reach probability × upstream blocking survival × offered
    packet rate), and resolves the Che hit ratios at those rates; the
    megaflow's reference stream is the EMC-miss stream
    (qᵢ ∝ pᵢ·(1 − hᵢᵉᵐᶜ)) rescaled to the megaflow stage rate.
    [init] (default [[|0.5; 0.5|]]) seeds [emc; megaflow] hit ratios;
    the iteration and its termination (residual ≤ 1e-9, 200-iteration
    cap) are {!Extensions.fixed_point}'s: the step starts undamped and
    halves whenever the residual does not shrink.

    The final report comes from one plain {!Throughput.evaluate} +
    {!Latency.evaluate} on the converged graph, so a degenerate
    configuration whose hit ratios do not depend on the rates (no TTL)
    reproduces the static {!Graph.scale_out_split} +
    [Estimate.run] answer bit for bit. Per-class rows classify
    ingress→egress paths by membership: paths through the megaflow's
    miss successor are cold, other paths through the megaflow vertex
    are warm, the rest are hot; on the canonical EMC → megaflow →
    slow-path chain each class is a single path, making the per-class
    p99 (from {!Tail.evaluate}) exact rather than a mixture
    approximation.

    Raises [Invalid_argument] if a cache vertex is missing or lacks
    exactly two out-edges. *)
