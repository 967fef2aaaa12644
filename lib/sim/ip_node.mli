(** A simulated IP block (§3.2, Figure 2-b): [m] bounded input queues, a
    work-conserving (weighted) round-robin dispatcher, and [engines]
    parallel execution engines sharing the block's aggregate rate.

    With one queue, capacity counts requests {e in the system} (queued +
    in service), so the node behaves as M/M/n/N under Poisson arrivals
    and [Exponential] service — the queueing model LogNIC assumes after
    merging an IP's queues into one {e virtual shared queue} (§3.6).
    Multiple queues ({!create_hierarchical}) let experiments probe what
    that merge abstracts away: per-class isolation and head-of-line
    blocking under a weighted-round-robin scheduler (see
    {!Lognic_apps.Hol_study}, which uses one group of per-class
    queues), and per-tenant arbitration. *)

type service_dist =
  | Deterministic  (** service takes exactly [work / engine_rate] *)
  | Exponential  (** exponentially distributed with that mean *)

type t

val create :
  ?track_lanes:bool ->
  Engine.t ->
  rng:Lognic_numerics.Rng.t ->
  label:string ->
  engines:int ->
  rate_per_engine:float ->
  queue_capacity:int ->
  service_dist:service_dist ->
  t
(** A single-queue node ([queues = 1]). Raises [Invalid_argument] on
    non-positive engine count / rate / capacity. [rate_per_engine] may
    be [infinity] for a transparent node. [track_lanes] (default
    [false]) maintains per-engine occupancy so {!submit}'s [span]
    callback reports a stable engine index; off, the node allocates no
    lane state and [span] always reports lane 0. Lane bookkeeping never
    affects scheduling. *)

val create_hierarchical :
  ?track_lanes:bool ->
  Engine.t ->
  rng:Lognic_numerics.Rng.t ->
  label:string ->
  engines:int ->
  rate_per_engine:float ->
  entries_per_queue:int ->
  group_weights:int array ->
  class_weights:int array array ->
  service_dist:service_dist ->
  t
(** The SR-IOV two-stage arbiter (OS4C-style): one queue {e group} per
    tenant/VF and one queue per traffic class within each group — queue
    [g·classes + c] is group [g]'s class-[c] queue, where [classes] is
    the (uniform) row length of [class_weights]. Stage 1 is
    packet-granular weighted round robin over the groups that currently
    have queued work: the serving group keeps the grant for up to
    [group_weights.(g)] requests per visit, then the grant rotates
    (groups activate at the end of the current round, deactivate the
    moment they drain). Stage 2 picks within the granted group by an
    expanded-pattern class WRR over [class_weights.(g)], skipping empty
    class queues. Both stages are O(1) per grant with state sized once
    at construction, so thousands of groups dispatch without scaling
    cost or allocation.

    With one group this is a flat multi-queue WRR node: queue [c]
    appears [class_weights.(0).(c)] times per pattern cycle.

    Each of the [groups·classes] queues holds at most
    [entries_per_queue] waiting requests (in-service requests are not
    charged to any queue). Raises [Invalid_argument] on empty/ragged weight arrays
    or any weight < 1. *)

val label : t -> string

val engines : t -> int
(** Configured engine count (the nameplate D, regardless of faults). *)

val queue_count : t -> int

val submit :
  ?queue:int ->
  ?tally:float array ->
  ?span:(lane:int -> queued:float -> service:float -> unit) ->
  t ->
  work:float ->
  (unit -> unit) ->
  bool
(** [submit node ~work k] enqueues a request needing [work] bytes of
    processing into [queue] (default 0); [k] fires at service
    completion. Returns [false] (and counts a drop) when that queue is
    full. [tally], when given, receives the request's time-in-queue and
    drawn service duration at service start, accumulated ([+.]) into
    [tally.(Telemetry.slot_queueing)] /
    [tally.(Telemetry.slot_service)] — the per-hop inputs to
    {!Telemetry.latency_terms}, recorded without boxing a float
    (callers keep one scratch array per in-flight packet; pass a
    pre-allocated [Some] to stay allocation-free). [span] is the
    tracing sink ({!Trace}): called once at service start with the same
    quantities plus the serving engine's lane index (see
    [track_lanes]); when absent, the request records nothing and costs
    nothing.

    Zero-work requests (and any request on an infinite-rate node) take
    a fast path {e only while their queue is empty}: they complete
    immediately without consuming an engine. When the queue is
    non-empty they are routed through it like any other request —
    preserving FIFO order (no overtaking) and subject to the capacity
    check. Raises [Invalid_argument] on a bad queue index or negative
    work. *)

val submit_at :
  ?tally:float array ->
  ?span:(lane:int -> queued:float -> service:float -> unit) ->
  t ->
  queue:int ->
  work:float ->
  (unit -> unit) ->
  bool
(** {!submit} with the queue index as a required argument — the hot-path
    entry for multiqueue/hierarchical callers, which avoids boxing the
    index in an option at every call. *)

val in_system : t -> int

val busy_engines : t -> int
(** Engines currently serving a request. *)

val set_offline : t -> int -> unit
(** Fail (or recover) engines: the dispatcher serves with at most
    [engines − n] engines from now on. Failure is graceful — services
    already running complete normally, so [busy_engines] can transiently
    exceed the reduced count — and recovery immediately re-dispatches
    once per freed engine. {!utilization} keeps its nameplate
    denominator ([engines]), so a half-failed node saturates at 0.5.
    Raises [Invalid_argument] outside [\[0, engines\]]. With [n = 0] the
    node is byte-identical to one that never saw a fault. *)

val set_capacity_override : t -> int option -> unit
(** Temporarily shrink the queue capacity: admission checks use
    [min capacity override] while set. Already-queued requests are kept
    even when they exceed the shrunken bound (the fault drains them
    through service, it does not discard them). Raises
    [Invalid_argument] on a capacity < 1. *)

val drops : t -> int
val drops_of_queue : t -> int -> int
val completions : t -> int

val busy_within : t -> until:float -> float
(** Engine-busy seconds, with each in-flight service clipped to
    [\[0, until\]] — exact at the run horizon. *)

val utilization : t -> until:float -> float
(** Mean fraction of engines busy over [\[0, until\]]; never exceeds 1
    at the horizon, even for an overloaded node. *)

val set_profile : t -> Profile.t option -> unit
(** Attach (or detach) a self-profiler: dispatch and completion
    bookkeeping is charged to {!Profile.phase_node}. [None] (the
    default) costs one pointer compare per entry and never affects
    scheduling. *)
