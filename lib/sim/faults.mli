(** Declarative, deterministic fault injection for simulation runs.

    A plan is a list of timed events over the run horizon — engines
    failing and recovering on a vertex, a medium's bandwidth degrading
    or flapping, a queue being shrunk by firmware, ingress shedding a
    burst — realized by {!realize} on the run's {!Ip_node}s and
    {!Medium}s when {!Netsim.execute} runs it. Guarantees (held by the
    [faults] tests):

    - an {e empty} plan is byte-identical to a run that never heard of
      faults: no extra rng stream is split and no per-packet work is
      added;
    - any plan is bit-identical at every [--jobs] setting: the fault rng
      is its own stream (split after the per-node rngs, before the trace
      rng) and is only drawn while a {!Drop_burst} is active.

    The same plan lowers to the analytic side via {!modifiers}, which
    partitions the horizon into maximal constant-fault-set intervals and
    hands each to {!Lognic.Degraded.evaluate} — the basis of the
    [lognic faults] model-vs-sim join. *)

type fault = Lognic.Degraded.fault =
  | Engine_down of { vertex : string; engines : int }
  | Medium_degraded of { medium : string; factor : float }
  | Queue_shrunk of { vertex : string; capacity : int }
  | Drop_burst of { probability : float }
(** The model's faults ({!Lognic.Degraded.fault}), re-exported. *)

type event = { start : float; stop : float; fault : fault }
(** The fault is active on [\[start, stop)]. *)

type plan = event list
(** Events need not be sorted and may overlap; overlapping faults
    compose by {!Lognic.Degraded.compose} in the simulator and the
    model alike (offline engines add, bandwidth factors multiply,
    capacities min-combine, burst survival probabilities multiply). *)

val empty : plan
val is_empty : plan -> bool

val engine_down :
  vertex:string -> engines:int -> start:float -> stop:float -> event

val medium_degraded :
  medium:string -> factor:float -> start:float -> stop:float -> event

val queue_shrunk :
  vertex:string -> capacity:int -> start:float -> stop:float -> event

val drop_burst : probability:float -> start:float -> stop:float -> event
(** Smart constructors; each raises [Invalid_argument] on a bad window
    ([start < 0], [stop ≤ start], non-finite bounds) or an out-of-range
    parameter ([engines < 1], [factor ∉ (0, 1]], [capacity < 1],
    [probability ∉ [0, 1]]). Target names are {e not} checked here —
    the simulator validates them against the realized entities
    ({!Netsim.execute}) and the analytic side ignores unknowns. *)

val fault_label : fault -> string
(** Stable short key used in interval reports: ["engine_down:VERTEX"],
    ["degrade:MEDIUM"], ["queue_shrink:VERTEX"], ["drop_burst"]. *)

val to_json : plan -> Telemetry.Json.t
(** The plan as a JSON array of events (embedded in the [lognic faults]
    report so a result document carries its own scenario). *)

val intervals : duration:float -> plan -> (float * float * event list) list
(** Partition [\[0, duration)] at every (clipped) event boundary into
    maximal intervals whose active-event set is constant, in
    chronological order; each interval carries its active events in plan
    order. The empty plan yields the single healthy interval
    [\[0, duration)]. Raises [Invalid_argument] on a non-positive
    duration. *)

val modifiers :
  duration:float -> plan -> (float * float * Lognic.Degraded.modifier) list
(** {!intervals} lowered for {!Lognic.Degraded.evaluate}: the active
    faults of each interval composed into one modifier
    ({!Lognic.Degraded.compose}). *)

val pp : Format.formatter -> plan -> unit

(** {1 Realization inside a simulation run}

    {!Netsim.execute} realizes a non-empty plan as one {!runtime}: one
    event per fault span on the run's engine, the drop-burst
    probability with its dedicated rng, and a {!Telemetry.Table} with
    one row per sub-interval that attributes every packet to the
    sub-interval of its {e birth} time. An empty plan realizes
    nothing. *)

(** Per-sub-interval accounting of a faulted run: the run horizon cut at
    every fault boundary and refined with a uniform duration/64 grid.
    The bin table's cutoff is 0, so every packet counts (not
    warmup-windowed) — the point is to see the timeline, including the
    transient. *)
type interval_stats = {
  i_start : float;
  i_stop : float;
  i_faults : string list;  (** active {!fault_label}s; [[]] on healthy stretches *)
  i_offered : int;
  i_delivered : int;
  i_dropped : int;
  i_throughput : float;  (** delivered bytes / sub-interval length *)
  i_latency : float;  (** mean delivered latency (0 when nothing was delivered) *)
}

(** Per-run recovery summary, derived from the interval rows. *)
type resilience = {
  recovery_time : float option;
      (** seconds from the last fault clearing until the first
          sub-interval whose throughput regains ≥ 90% of the healthy
          baseline (the time-weighted throughput of pre-fault healthy
          sub-intervals); [None] when faults extend to the horizon, the
          run never recovers, or no healthy baseline exists *)
  worst_throughput : float;  (** lowest faulted sub-interval throughput *)
  worst_start : float;  (** where that sub-interval starts *)
}

(** Across-run resilience statistics (faulted replications only). *)
type resilience_replicated = {
  recovered_runs : int;  (** runs whose [recovery_time] was [Some] *)
  recovery_mean : float;  (** mean over recovered runs (0 when none) *)
  recovery_max : float;
  worst_throughput_mean : float;
  worst_throughput_min : float;
}

type runtime
(** A plan realized in one run. *)

val realize :
  plan ->
  Engine.t ->
  rng:Lognic_numerics.Rng.t ->
  nodes:Ip_node.t list ->
  media:Medium.t list ->
  duration:float ->
  runtime
(** Validate every target against the run's nodes (by label) and media,
    then schedule one event at the start of each of {!intervals}' spans
    (the first only when it is faulted) that sets every target the plan
    names to the span's {!Lognic.Degraded.compose}d value, composed in
    plan order — the spans and values {!modifiers} hands the model. So
    splitting an event at an interior point changes no measured
    quantity. [rng] is the run's dedicated fault stream.
    Raises [Invalid_argument] on an unknown or infinite-throughput
    vertex, an unknown medium, or a non-positive [duration]. *)

val shed : runtime -> bool
(** Whether an active drop burst sheds the arriving packet. Draws from
    the fault rng only while a burst is active. *)

val record_offered : runtime -> float array -> unit
val record_delivered : runtime -> float array -> unit
val record_dropped : runtime -> float array -> unit
(** The matching {!Telemetry.Table} record on the row of the packet's
    birth sub-interval; the argument is the flight's
    {!Telemetry.flight_slots} array. *)

val birth_bins : runtime -> (int * int) array
(** Per sub-interval: packets offered, and packets resolved (delivered +
    dropped) — input to {!Invariants.check_horizon}. *)

val summarize : runtime -> interval_stats list * resilience option
(** The chronological interval rows tiling [\[0, duration)], and the
    recovery summary (present iff some fault was active before the
    horizon). *)

val resilience_across :
  resilience option list -> resilience_replicated option
(** Across-run statistics over the runs that have a recovery summary;
    [None] when none does. *)

val interval_to_json : interval_stats -> Telemetry.Json.t
val resilience_to_json : resilience -> Telemetry.Json.t
val resilience_replicated_to_json : resilience_replicated -> Telemetry.Json.t
