(** Tail-latency estimation — an extension beyond the paper.

    §4.7 lists as a LogNIC limitation that "the model optimizer cannot
    take the tail latency as the optimization goal or constraint since
    the model is unable to estimate the tail behavior". This module
    closes that gap under the model's own assumptions (Poisson
    arrivals, exponential service, M/M/D/N vertices):

    - each vertex's sojourn (mean, variance) comes from the same queue
      solve as its mean latency term ({!Lognic_queueing.Mm1n.solve},
      {!Lognic_queueing.Mmcn.solve}), carried in
      {!Latency.vertex_terms};
    - a path's random sojourn is the independent sum over its vertices,
      so means and variances add; deterministic terms (overheads, data
      movement) shift the distribution;
    - the sum is approximated by a moment-matched gamma distribution,
      and the whole-graph quantile inverts the path-weighted CDF
      mixture.

    Estimates are validated against the simulator's measured p50/p99 in
    the test suite. Accuracy degrades with heavy per-vertex blocking
    (the acceptance conditioning skews higher moments). *)

type quantiles = {
  q_mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type path_tail = {
  tpath : Graph.vertex_id list;
  tweight : float;
  tq : quantiles;
}

type result

val overall : result -> quantiles
val per_path : result -> path_tail list

val evaluate :
  Graph.t -> hw:Params.hardware -> traffic:Traffic.t -> Latency.result -> result
(** [evaluate g ~hw ~traffic latency] reads the paths, their weights and
    every vertex's sojourn moments ({!Latency.vertex_terms}) from
    [latency], which must be {!Latency.evaluate}'s (or
    {!Latency.evaluate_with}'s) result on [g] under [traffic]: the
    tail follows whatever queue model, and for a joint multi-class
    evaluation whatever union-queue rates, produced it. [g] and [hw]
    give the deterministic shift (overheads, data movement), so
    the overall [q_mean] agrees with [latency]'s mean. *)
