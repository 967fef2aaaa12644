(** Live streaming metrics, SLO watchdogs, and snapshot exports.

    A registry of per-entity instruments is sampled on a fixed sim-time
    interval, producing delta-encoded {!snapshot}s that stream as
    NDJSON ([schema:"metrics"]) and export cumulatively as OpenMetrics
    text; every {!Gauge} also keeps its sampled history ({!series}), the
    run's only time series.  SLO {!Slo.rule}s are evaluated against
    every sampled value each interval, with hysteresis, yielding
    structured {!alert} records naming the offending entity.

    Determinism: every instrument is a read-only view of state the
    simulator already maintains — the latency {!histogram} reads a
    {!Telemetry.Table} row's log₂ buckets — so enabling metrics never
    changes simulation results and adds no per-packet work.
    Wall-clock/GC numbers from the optional self-{!profiler} are
    exported separately ([schema:"profile"]) and never enter the
    deterministic snapshot stream. *)

(** How a sampled value is presented and evaluated. *)
type kind =
  | Counter  (** cumulative probe; snapshots carry delta and total, SLO
                 rules see the per-interval delta *)
  | Gauge
      (** instantaneous level; SLO rules see the level, and each tick's
          level joins the gauge's history ({!series}) *)
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
end

type t

type config = {
  interval : float;  (** sim seconds between snapshots (finite, > 0) *)
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
      (** per-interval deltas; [p50]/[p99] are the log₂ bucket upper
          bounds ({!Telemetry.Table.bucket_upper}) holding the interval's
          quantiles, good to a factor of 2 *)

and alert_event = {
  ev_rule : string;
  ev_entity : string;
  ev_firing : bool;  (** [true] fired, [false] resolved *)
  ev_value : float;  (** the evaluated value at the transition *)
}

val default_config : config
(** 1 ms interval, no rules, no profiler, no callback. *)

val create : config -> t
(** Raises [Invalid_argument] on an interval that is not positive and
    finite. *)

(** {2 Instruments} *)

val register :
  t -> entity:string -> name:string -> kind -> (unit -> float) -> unit
(** Add a scalar instrument backed by a read-only probe. Registration
    order is the deterministic sampling/export order. The probe is
    called once immediately to seed the delta baseline. A [Gauge] gets
    a history labelled ["ENTITY.NAME"] at the config's interval. *)

val histogram :
  t -> entity:string -> name:string -> Telemetry.Table.t -> row:int -> unit
(** A view of one table row's log₂ latency histogram: each tick reports
    the interval's count, latency sum and p50/p99 from the row's
    bucket and sum deltas, and synthesizes [NAME_p50] / [NAME_p99]
    values for SLO rules to target. Raises [Invalid_argument] on a row
    outside the table. *)

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

val series : t -> Telemetry.Series.t list
(** Each gauge's history, in registration order: one
    {!Telemetry.Series} labelled ["ENTITY.NAME"] whose samples are the
    [(s_time, value)] pairs its {!Gauge_s} samples reported, tick by
    tick (the newest 4096 once the ring is full). *)

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
  t
(** What {!Netsim.execute} runs when [config.metrics] is set: a registry
    over one run's state. Instruments register in this order: [run]
    counters ([offered], [delivered], [dropped], [delivered_bytes]) and
    the [latency] {!histogram}, all reading row 0 of the run's
    {!Telemetry.table}; [drops] per interned {!Telemetry} drop site;
    per node [completions], [drops], [queue_depth], [busy_engines],
    [utilization]; per medium [transfers], [rejections],
    [backlog_bytes], [utilization]; and, with [tenants] (the set and
    its attribution table), the [tenants] fairness gauges. So
    {!series} holds [LABEL.queue_depth] and [LABEL.busy_engines] per
    node, [LABEL.backlog_bytes] per medium, then the fairness gauges.
    The profiler (if any) is attached to every node and medium, and
    ticks are scheduled every [config.interval] up to [until] — this is
    {!Engine.every}'s only caller. *)

(** {2 Exports} *)

val snapshot_to_json : snapshot -> Telemetry.Json.t
(** One [schema:"metrics"] document, the only snapshot writer;
    [Json.to_string] of successive snapshots is the NDJSON stream. *)

val snapshot_to_buffer : Buffer.t -> snapshot -> unit
(** Append [Json.to_string (snapshot_to_json s)] to [buf]. *)

val alerts_to_json : t -> Telemetry.Json.t
(** [schema:"alerts"] summary of every alert state. *)

val profile_to_json : t -> Telemetry.Json.t option
(** [schema:"profile"] document when profiling is on. *)

val to_openmetrics : t -> string
(** OpenMetrics text exposition of cumulative values at call time
    ([lognic_]-prefixed families, entities as labels, [# EOF]
    terminated). A histogram writes one cumulative [_bucket] line per
    log₂ bucket: [le] is the bucket's inclusive upper edge, 63 finite
    edges from 2{^−39} to 2{^23} s and then [+Inf]. *)
