(** Declarative, deterministic fault injection for simulation runs.

    A plan is a list of timed events over the run horizon — engines
    failing and recovering on a vertex, a medium's bandwidth degrading
    or flapping, a queue being shrunk by firmware, ingress shedding a
    burst — realized inside {!Ip_node}/{!Medium}/{!Netsim} when the run
    executes. Guarantees (held by the [faults] tests):

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

type fault =
  | Engine_down of { vertex : string; engines : int }
      (** [engines] of the vertex's D engines are down; ≥ D means the
          vertex is fully failed *)
  | Medium_degraded of { medium : string; factor : float }
      (** "interface", "memory", or "link-SRC-DST" runs at
          [factor · bandwidth], factor ∈ (0, 1] *)
  | Queue_shrunk of { vertex : string; capacity : int }
      (** the vertex's queue capacity is capped at
          [min capacity N] *)
  | Drop_burst of { probability : float }
      (** each offered packet is shed at ingress with this probability *)

type event = { start : float; stop : float; fault : fault }
(** The fault is active on [\[start, stop)]. *)

type plan = event list
(** Events need not be sorted and may overlap; overlapping faults
    compose (offline engines add, bandwidth factors multiply, capacities
    min-combine, burst survival probabilities multiply). *)

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

val event_to_json : event -> Telemetry.Json.t
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
(** {!intervals} lowered for {!Lognic.Degraded.evaluate}: active faults
    of each interval folded into one composed modifier. *)

val pp : Format.formatter -> plan -> unit
