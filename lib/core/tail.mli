(** Tail-latency estimation — an extension beyond the paper.

    §4.7 lists as a LogNIC limitation that "the model optimizer cannot
    take the tail latency as the optimization goal or constraint since
    the model is unable to estimate the tail behavior". This module
    closes that gap under the model's own assumptions (Poisson
    arrivals, exponential service, M/M/D/N vertices):

    - an accepted arrival that finds [k] requests in an M/M/1/N system
      sojourns for an Erlang(k+1, μ) time, so the sojourn's first two
      moments follow from the state distribution (PASTA conditioned on
      acceptance); the M/M/c/N case splits into a no-wait branch
      (k < c) and an Erlang wait at rate cμ;
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
(** Holds the per-path distributions so arbitrary quantiles stay
    invertible. *)

val overall : result -> quantiles
val per_path : result -> path_tail list

val evaluate :
  ?model:Latency.queue_model ->
  ?rates_for:(Graph.vertex_id -> (float * float) option) ->
  Graph.t ->
  hw:Params.hardware ->
  traffic:Traffic.t ->
  result
(** Raises [Invalid_argument] on an invalid graph (same contract as
    {!Latency.evaluate}). The overall [q_mean] agrees with
    {!Latency.evaluate}'s mean by construction (same per-vertex
    queueing assumptions). *)
