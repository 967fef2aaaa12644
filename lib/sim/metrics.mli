(** Live streaming metrics, SLO watchdogs, and snapshot exports.

    A registry of per-entity instruments is sampled on a fixed sim-time
    interval, producing delta-encoded {!snapshot}s that stream as
    NDJSON ([schema:"metrics"]) and export cumulatively as OpenMetrics
    text.  SLO {!Slo.rule}s are evaluated against every sampled value
    each interval, with hysteresis, yielding structured {!alert}
    records naming the offending entity.

    Determinism: scalar instruments are read-only probes over state the
    simulator already maintains, so enabling metrics never changes
    simulation results; the histogram's {!observe_span} allocates nothing.
    Wall-clock/GC numbers from the optional self-{!profiler} are
    exported separately ([schema:"profile"]) and never enter the
    deterministic snapshot stream. *)

(** How a sampled value is presented and evaluated. *)
type kind =
  | Counter  (** cumulative probe; snapshots carry delta and total, SLO
                 rules see the per-interval delta *)
  | Gauge  (** instantaneous level; SLO rules see the level *)
  | Rate
      (** cumulative probe presented as delta/interval — e.g. a busy-
          seconds probe becomes utilization; SLO rules see the rate *)

(** SLO watchdog rules.

    Grammar (one rule per string):
    {v
      [ENTITY.]METRIC>VALUE[xN]   threshold, e.g. *.utilization>0.95
      [ENTITY.]METRIC<VALUE[xN]   lower-bound threshold
      [ENTITY.]METRIC^N           rising for N consecutive intervals
    v}
    [ENTITY] defaults to ["*"] (any entity).  [xN] requires the breach
    to hold for [N] consecutive intervals before the alert fires; the
    same [N] non-breaching intervals clear it (hysteresis). *)
module Slo : sig
  type comparison = Gt | Lt
  type condition = Threshold of comparison * float | Rising

  type rule = {
    r_entity : string;  (** ["*"] matches any entity *)
    r_metric : string;
    r_cond : condition;
    r_for : int;  (** consecutive breaching intervals to fire (>= 1) *)
  }

  val parse : string -> (rule, string) result
  val parse_exn : string -> rule
  val to_string : rule -> string
  (** Round-trips through {!parse}; also the [rule] key in exports. *)

  val matches : rule -> entity:string -> metric:string -> bool
end

type t

type config = {
  interval : float;  (** sim seconds between snapshots (> 0) *)
  slo : Slo.rule list;
  profile : bool;  (** also run the wall-clock self-{!Profile}r *)
  on_snapshot : (snapshot -> unit) option;
      (** called by {!tick} with each completed snapshot *)
}

and snapshot = {
  s_seq : int;  (** 1-based snapshot number *)
  s_time : float;  (** sim time of the tick *)
  s_interval : float;  (** seconds since the previous tick *)
  s_entities : entity_snapshot list;  (** first-registration order *)
  s_alerts : alert_event list;  (** state transitions this interval *)
}

and entity_snapshot = {
  e_name : string;
  e_samples : (string * sample) list;  (** registration order *)
}

and sample =
  | Counter_s of { total : float; delta : float }
  | Gauge_s of { value : float }
  | Rate_s of { value : float; total : float }
  | Hist_s of { count : int; sum : float; p50 : float; p99 : float }
      (** per-interval deltas; [p50]/[p99] are bucket upper bounds of
          the interval's observations *)

and alert_event = {
  ev_rule : string;
  ev_entity : string;
  ev_firing : bool;  (** [true] fired, [false] resolved *)
  ev_value : float;  (** the evaluated value at the transition *)
}

val default_config : config
(** 1 ms interval, no rules, no profiler, no callback. *)

val create : config -> t
(** Raises [Invalid_argument] on a non-positive interval. *)

val config : t -> config

(** {2 Instruments} *)

val register :
  t -> entity:string -> name:string -> kind -> (unit -> float) -> unit
(** Add a scalar instrument backed by a read-only probe. Registration
    order is the deterministic sampling/export order. The probe is
    called once immediately to seed the delta baseline. *)

type histogram

val histogram :
  t -> entity:string -> name:string -> ?bounds:float array -> unit -> histogram
(** A bucketed histogram; [bounds] (default {!default_bounds}) are the
    strictly-increasing finite bucket upper bounds, with a [+inf]
    bucket appended.  Each tick synthesizes [NAME_p50] / [NAME_p99]
    values from the interval's observations for SLO rules to target. *)

val default_bounds : float array
(** Log-spaced, 4 buckets per decade from 100 ns to 1 s. *)

val observe_span : histogram -> float array -> from_slot:int -> to_slot:int -> unit
(** [observe_span h fs ~from_slot ~to_slot] records one observation,
    [fs.(to_slot) -. fs.(from_slot)]: unrolled bucket search + integer
    bump. Only pointers and ints cross the call boundary, so the
    simulator's per-delivery latency hook is allocation-free even under
    the non-flambda compiler. *)

(** {2 Ticks and alerts} *)

val tick : t -> now:float -> snapshot
(** Close the current interval: sample every instrument, compute
    deltas, evaluate SLO rules, invoke [on_snapshot], and (when
    profiling) record a {!Profile} interval row. *)

val snapshots : t -> int
(** Ticks so far. *)

(** Cumulative per-(rule, entity) alert state. *)
type alert = {
  a_rule : Slo.rule;
  a_entity : string;
  mutable a_active : bool;
  mutable a_first_fired : float;  (** sim time; -1 if never fired *)
  mutable a_last_fired : float;  (** last breaching interval while active *)
  mutable a_breaches : int;  (** intervals in breach, fired or not *)
  mutable a_worst : float;  (** most extreme breaching value; nan if none *)
  mutable a_streak : int;
  mutable a_clear_streak : int;
  mutable a_prev : float;
  mutable a_has_prev : bool;
}

val alerts : t -> alert list
(** Every (rule, entity) pair evaluated so far, in first-evaluation
    order — including pairs that never fired. *)

val profiler : t -> Profile.t option
(** The self-profiler owned by this instance when [config.profile]. *)

(** {2 The simulator's instrument catalog} *)

val attach :
  config ->
  Engine.t ->
  telemetry:Telemetry.t ->
  nodes:Ip_node.t list ->
  media:Medium.t list ->
  ?tenants:Tenant.set * Telemetry.Table.t ->
  until:float ->
  unit ->
  t * histogram
(** What {!Netsim.execute} runs when [config.metrics] is set: a registry
    over one run's state, returned with its [run.latency] histogram for
    the delivery hook to {!observe_span}. Instruments register in this
    order: [run] counters ([offered], [delivered], [dropped],
    [delivered_bytes]) and the latency histogram; [drops] per interned
    {!Telemetry} drop site; per node [completions], [drops],
    [queue_depth], [busy_engines], [utilization]; per medium
    [transfers], [rejections], [backlog_bytes], [utilization]; and, with
    [tenants] (the set and its attribution table), the [tenants]
    fairness gauges. The profiler (if any) is
    attached to every node and medium, and ticks are scheduled every
    [config.interval] up to [until] ({!Engine.every}). *)

(** {2 Exports} *)

val snapshot_to_json : snapshot -> Telemetry.Json.t
(** One [schema:"metrics"] document; [Json.to_string] of successive
    snapshots is the NDJSON stream. *)

val snapshot_to_buffer : Buffer.t -> snapshot -> unit
(** Append the snapshot's JSON document to [buf] — byte-identical to
    [Json.to_string (snapshot_to_json s)] but without building the
    tree, which keeps per-tick streaming cost low. *)

val snapshot_to_string : snapshot -> string
(** [snapshot_to_buffer] into a fresh buffer. *)

val alerts_to_json : t -> Telemetry.Json.t
(** [schema:"alerts"] summary of every alert state. *)

val profile_to_json : t -> Telemetry.Json.t option
(** [schema:"profile"] document when profiling is on. *)

val to_openmetrics : t -> string
(** OpenMetrics text exposition of cumulative values at call time
    ([lognic_]-prefixed families, entities as labels, [# EOF]
    terminated). *)
