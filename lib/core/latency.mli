(** Latency modeling (§3.6, Eqs 5–12).

    A request's time at an IP is queueing (Q) plus service (C/A); moving
    to the next IP adds the computation-transfer overhead (O) and the
    data-movement time over the traversed media (Eq 5). A path's latency
    accumulates these along its edges, plus the final vertex's Q and C/A
    (Eq 6); the graph latency is the weighted average over all
    ingress→egress paths (Eq 8), weighted by the δ-derived branching
    probabilities.

    Queueing uses the virtual-shared-queue abstraction with an M/M/1/N
    model per vertex (Eqs 9–12), parameterized from Eq 11:

    - λ_i = BW_in · indeg(v_i) / (D_vi · g_in)
    - μ_i = γ·A·P_vi · indeg(v_i) / (D_vi · g_in · Σδ_ji)

    so that ρ_i = BW_in·Σδ_ji / (γ·A·P_vi), the vertex's utilization.
    Vertices with infinite throughput are transparent (Q = C = 0). *)

type queue_model =
  | Mm1n_model  (** the paper's finite-queue model, Eq 12 (default) *)
  | Mmcn_model
      (** exact multi-server M/M/D/N per vertex. Identical to
          [Mm1n_model] when D = 1; for high-parallelism opaque IPs
          (e.g. an SSD with dozens of in-flight commands) this is the
          parameter-free equivalent of the paper's curve-fitting
          remedy (§4.3) — Eq 12's per-engine-queue abstraction
          overstates their queueing *)
  | Mm1_model
      (** infinite-buffer ablation; diverges at ρ ≥ 1 (reported as
          [infinity]) *)
  | No_queueing  (** ablation: Q_i = 0 everywhere *)

type vertex_terms = {
  vid : Graph.vertex_id;
  queueing : float;  (** Q_i, seconds *)
  service : float;  (** C_i/A_i, seconds *)
  utilization : float;  (** ρ_i *)
  drop_probability : float;
      (** blocking probability Pro_N of the M/M/1/N or M/M/D/N queue
          (0 under the ablations) *)
  sojourn : float * float;
      (** an accepted request's sojourn (mean, variance) from the same
          queue solve, what {!Tail} reads; the ablations hold
          M/M/1/N's, transparent vertices (0, 0). The joint M/G/1
          waiting inflation scales [queueing] only. *)
}

type path_report = {
  path : Graph.vertex_id list;
  weight : float;  (** w_Pk, normalized over all paths *)
  total : float;  (** T_Pk, seconds *)
  queueing : float;
  service : float;
  overhead : float;
  transfer : float;  (** data movement over interface/memory/links *)
}

type result = {
  mean : float;  (** T_attainable (Eq 8), seconds *)
  per_path : path_report list;
      (** every ingress→egress path with its normalized δ-branching
          weight; on a combinatorial graph the first 10_000
          ({!Graph.paths_capped}), weights renormalized over that
          subset *)
  per_vertex : vertex_terms list;  (** the vertices on those paths *)
  carried_rate : float;
      (** BW_in discounted by the path-weighted blocking along the way —
          the model's goodput estimate under finite queues, bytes/s *)
}

val vertex_service_time :
  Graph.t -> traffic:Traffic.t -> Graph.vertex_id -> float
(** C_i/A_i per Eq 7. 0 for infinite-throughput vertices. Raises
    [Invalid_argument] naming the vertex ({!Graph.unservable}) when the
    time overflows to infinity. *)

val vertex_rates : Graph.t -> traffic:Traffic.t -> Graph.vertex_id -> float * float
(** (λ, μ) of the vertex's virtual shared queue per Eq 11 — the inputs
    to the queueing term, exposed for the joint multi-class
    evaluation. *)

val vertex_terms :
  ?model:queue_model -> Graph.t -> traffic:Traffic.t -> Graph.vertex_id -> vertex_terms
(** The full single-class per-vertex evaluation: Eq 11 rates fed to the
    selected queue model, zero terms for transparent vertices. *)

val terms_of_rates :
  ?model:queue_model ->
  Graph.t ->
  Graph.vertex_id ->
  service:float ->
  lambda:float ->
  mu:float ->
  vertex_terms
(** The queue-model dispatch of {!vertex_terms} with caller-supplied
    (λ, μ) and service time — the hook the joint multi-class evaluation
    ({!Extensions.mixed_traffic}) uses to feed a vertex the union of
    class arrival streams and a packet-size-mixture service rate.
    Queue capacity and parallelism still come from the vertex. *)

val edge_transfer_time :
  Graph.t -> hw:Params.hardware -> traffic:Traffic.t -> Graph.edge -> float
(** g_in·α/BW_INTF + g_in·β/BW_MEM (+ g_in·δ/BW_mn on a dedicated
    link) — Eq 7, first line. *)

val evaluate :
  ?model:queue_model ->
  Graph.t ->
  hw:Params.hardware ->
  traffic:Traffic.t ->
  result
(** Raises [Invalid_argument] if the graph fails {!Graph.validate} or
    has no ingress→egress path. *)

val evaluate_with :
  term_of:(Graph.vertex_id -> vertex_terms) ->
  Graph.t ->
  hw:Params.hardware ->
  traffic:Traffic.t ->
  result
(** {!evaluate} with the per-vertex queueing terms supplied by
    [term_of] (memoized per vertex, called at most once per id) instead
    of the single-class Eq 11 derivation. [traffic] still scopes the
    edge-transfer times (packet size) and the carried-rate discount
    (offered rate). [evaluate] is [evaluate_with] over
    {!vertex_terms}. *)

val pp_result : Format.formatter -> result -> unit
