(** Runtime conservation-law checking for simulation runs.

    The simulator's quantities obey a family of exact or near-exact laws:
    every injected packet is eventually delivered, dropped, or still in
    flight at the horizon; the per-site drop breakdown sums to the
    aggregate drop counter; the four {!Telemetry.latency_terms}
    components tile each delivered packet's end-to-end latency; no
    entity is ever more than 100% utilized; bounded queues never hold
    more than their capacity; the event queue pops times in
    non-decreasing order. A checker ([t]) accumulates structured
    violation records for any law that fails, so a broken invariant
    points at the entity and simulated time where the books stopped
    balancing instead of surfacing later as a subtly-wrong summary.

    Checking is opt-in ({!Netsim.config.check_invariants}); the disabled
    path adds no work to the simulator hot loop, and the enabled path
    allocates nothing per event (the ledger's [layer.invariants.cost]
    metric tracks its time). *)

type violation = {
  law : string;  (** stable kebab-case law name, e.g. ["packet-conservation"] *)
  entity : string;  (** vertex/medium label, ["run"], or ["packet-<id>"] *)
  time : float;  (** simulated seconds when the check ran *)
  expected : float;
  actual : float;
  detail : string;  (** human-readable statement of the law *)
}

type report = {
  checks : int;  (** individual law evaluations performed *)
  total_violations : int;
  violations : violation list;
      (** first 100 violations in detection order, so a systemically
          broken run that fails millions of per-packet checks keeps a
          bounded report; the count above is not capped *)
}

type t
(** A mutable checker accumulating violations over one run. *)

val create : unit -> t

(** {1 Generic checks}

    Every check increments [checks] and records a violation on failure.
    Closeness is relative-with-floor: values pass when
    [|expected - actual| <= tol * max 1. (max |expected| |actual|)],
    so laws about quantities near zero are not held to impossible
    absolute precision. A non-finite [actual] always fails. *)

val check_close :
  t ->
  law:string ->
  entity:string ->
  time:float ->
  ?tol:float ->
  expected:float ->
  actual:float ->
  string ->
  unit
(** [tol] defaults to [1e-9]. *)

val check_count :
  t ->
  law:string ->
  entity:string ->
  time:float ->
  expected:int ->
  actual:int ->
  string ->
  unit
(** Exact integer equality. *)

val check_bound :
  t ->
  law:string ->
  entity:string ->
  time:float ->
  ?tol:float ->
  limit:float ->
  actual:float ->
  string ->
  unit
(** Passes when [actual <= limit] up to the relative tolerance
    ([tol] defaults to [1e-9]); the violation stores [limit] as
    [expected]. *)

val check_nonneg :
  t -> law:string -> entity:string -> time:float -> actual:float -> string -> unit

(** {1 Packet-fate ledger}

    Every packet id must be injected exactly once and resolved
    (delivered or dropped) at most once; ids resolved without a live
    injection record a ["packet-fate"] violation — the signature of a
    double delivery or double drop. The ledger is a bitmap indexed by
    id, so ids must be non-negative: injecting a negative id raises
    [Invalid_argument]. *)

val packet_injected : t -> id:int -> time:float -> unit
val packet_dropped : t -> id:int -> time:float -> unit

val observe_event_time : t -> float -> unit
(** Feed every popped event time in execution order; times must be
    non-decreasing (["event-monotonicity"]). {!Netsim} calls it from an
    {!Engine.run} observer with {!Engine.now}. *)

(** {1 Simulator hooks}

    The entity laws {!Netsim} checks when [check_invariants] is on. *)

val check_admitted : t -> time:float -> limit:float -> Ip_node.t -> unit
(** Right after a node admits a request: requests in the system fit
    [limit] (the node's queue capacity under its queueing convention)
    and busy engines fit the configured count. *)

val check_medium : t -> time:float -> Medium.t -> unit
(** Right after a medium admits a transfer: the backlog fits its
    buffer. *)

val check_delivery : t -> id:int -> time:float -> float array -> unit
(** Resolve packet [id] as delivered (fate law as for
    {!packet_dropped}), plus the Eq. 2 tiling law on the flight's
    {!Telemetry.flight_slots} array: queueing + service + wire +
    overhead equal birth-to-egress time. *)

val check_horizon :
  t ->
  horizon:float ->
  nodes:Ip_node.t list ->
  media:Medium.t list ->
  generated:int ->
  ?birth_bins:(int * int) array ->
  Telemetry.summary ->
  unit
(** The end-of-run laws, in order:
    - horizon-clipped utilization and busy time of every node and
      medium;
    - the ledger's closing entry: injected = delivered + dropped +
      in-flight, and injected agrees with the traffic generator's own
      count ([generated]);
    - the [(offered, resolved)] count of each fault birth bin
      ({!Faults.birth_bins}; default none);
    - the {!Telemetry.summary} self-consistency laws: the drop
      breakdown sums to [dropped_packets], per-class delivered counts
      sum to [delivered_packets], the mean latency-term decomposition
      tiles [mean_latency], [throughput]/[packet_rate] agree with
      delivered bytes/packets over the window, [loss_rate] is in
      [0, 1], the window fits the horizon, and (when anything was
      delivered) p50 ≤ p99 ≤ max and mean ≤ max. *)

(** {1 Reporting} *)

val report : t -> report
(** Snapshot of everything checked so far (violations in detection
    order). *)

val ok : report -> bool
(** No violations. *)

val pp_violation : Format.formatter -> violation -> unit

val report_to_json : report -> Telemetry.Json.t
(** [{"checks": n, "violations": n, "recorded": [...]}] — a fragment
    for embedding, not a versioned document. *)
