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
    be [infinity] for a transparent node. *)

val create_hierarchical :
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

val submit_at :
  ?hop:Hop.t -> t -> queue:int -> work:float -> (unit -> unit) -> bool
(** [submit_at node ~queue ~work k] enqueues a request needing [work]
    bytes of processing into queue [queue] (0 on a single-queue node);
    [k] fires at service completion. Returns [false] (and counts a
    drop) when that queue is full. [hop], the packet's ledger, is told
    of the request's time in queue and drawn service duration at
    service start through {!Hop.served}, under the node's label; pass a
    pre-built [Some] to stay allocation-free. The lane it reports is
    the index of the completion slot the service holds: concurrent
    services report distinct lanes in \[0, engines), and a completion
    frees its lane for the next start.

    Zero-work requests (and any request on an infinite-rate node) take
    a fast path {e only while their queue is empty}: they complete
    immediately without consuming an engine, and report lane 0. When
    the queue is non-empty they are routed through it like any other
    request — preserving FIFO order (no overtaking) and subject to the
    capacity check. Raises [Invalid_argument] on a bad queue index or
    negative work. *)

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
