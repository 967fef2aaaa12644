(** Optimizer mode (§3.8, Figure 4-b).

    The optimizer searches LogNIC's configurable parameters (Table 2's
    CONF rows) for an assignment meeting a performance goal, evaluating
    candidates through the analytical model. Discrete knobs (candidate
    IP throughputs — e.g. "how many NIC cores", queue credits) are
    enumerated exhaustively; continuous knobs (traffic splits, node
    partitions) run through the penalty-constrained Nelder–Mead of
    {!Lognic_numerics.Constrained} with multi-start. This mirrors the
    paper's SLSQP-based solver at the fidelity our case studies need;
    like the paper's, the result may be a local optimum for non-convex
    continuous landscapes. *)

type knob =
  | Vertex_throughput of Graph.vertex_id * float array
      (** candidate values for P_vi, e.g. achievable core allocations *)
  | Queue_capacity of Graph.vertex_id * int * int
      (** inclusive credit range for N_vi *)
  | Out_split of Graph.vertex_id
      (** re-balance the δ (and proportional α/β) of the vertex's
          out-edges — traffic steering *)
  | Partition of Graph.vertex_id * float * float
      (** γ_vi within the given inclusive range *)
  | Accel of Graph.vertex_id * float array
      (** candidate kernel-acceleration factors A_i (Eq 5's tunable
          "what if we optimized this kernel" parameter) *)
  | Ingress_rate of float * float
      (** admissible BW_in range — e.g. find the highest offered load
          meeting a latency bound (admission control) *)

type objective =
  | Maximize_throughput
  | Minimize_latency
  | Minimize_latency_min_throughput of float
      (** minimize mean latency subject to attained ≥ the bound *)
  | Maximize_throughput_max_latency of float
      (** maximize attained subject to mean latency ≤ the bound *)

type assignment =
  | Set_throughput of Graph.vertex_id * float
  | Set_queue_capacity of Graph.vertex_id * int
  | Set_split of Graph.vertex_id * float list
  | Set_partition of Graph.vertex_id * float
  | Set_accel of Graph.vertex_id * float
  | Set_ingress_rate of float

type search_stats = {
  evaluations : int;  (** model evaluations requested by the search *)
  memo_hits : int;
      (** of those, served from the grid point's LRU memo of
          canonicalized knob assignments instead of re-running
          [Throughput.evaluate]/[Latency.evaluate] *)
}

type solution = {
  graph : Graph.t;  (** the base graph with the assignment applied *)
  assignment : assignment list;
  report : Estimate.report;  (** model outputs on the optimized graph *)
  feasible : bool;  (** constraint (if any) met *)
  stats : search_stats;  (** search effort and memo hit-rate *)
}

type observation = {
  sequence : int;
      (** 0-based evaluation index: grid points in enumeration order,
          each point's evaluations in the order it made them *)
  candidate : assignment list;  (** the knob assignment evaluated *)
  score : float;  (** objective value (lower is better, as searched) *)
  cache_hit : bool;  (** served from the memo, no model run *)
}

val optimize :
  ?queue_model:Latency.queue_model ->
  ?jobs:int ->
  ?observer:(observation -> unit) ->
  Graph.t ->
  hw:Params.hardware ->
  traffic:Traffic.t ->
  knobs:knob list ->
  objective ->
  solution
(** Raises [Invalid_argument] on an empty knob list, an empty candidate
    array, or knobs referring to unknown vertices. The continuous
    multi-start draws from a fresh seed-42 rng per call. [jobs] (default:
    the parallelism set by {!Lognic_numerics.Parallel.set_default_jobs})
    evaluates the exhaustive discrete grid that many domains wide; the
    result is identical at
    every job count (grid points are independent, folded in enumeration
    order, and the multi-start rngs are pre-split in that same order).

    Each grid point keeps its own memo, so [stats] is identical at
    every job count too.

    [observer] fires once per candidate evaluation — memo hits
    included — with the candidate, its objective score, its cache-hit
    status, and a dense sequence index; {!Lognic_sim.Search_log} folds
    these into a convergence log. It is called from the calling
    domain, in sequence order, as each chunk of grid points is folded.
    The observer never influences the search result. *)

val pareto :
  ?queue_model:Latency.queue_model ->
  ?jobs:int ->
  ?observer:(observation -> unit) ->
  ?points:int ->
  Graph.t ->
  hw:Params.hardware ->
  traffic:Traffic.t ->
  knobs:knob list ->
  (float * solution) list
(** Figure 4-b's relax-the-goal loop, automated: solve
    [Maximize_throughput_max_latency bound] for [points] (default 8)
    latency bounds spaced geometrically between the
    minimum-achievable latency and the unconstrained
    maximum-throughput latency, returning [(bound, solution)] pairs in
    increasing-bound order. Infeasible bounds are dropped; carried
    throughput is non-decreasing along the returned frontier. *)

val pp_assignment : Format.formatter -> assignment -> unit
