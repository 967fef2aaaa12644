(** Multi-tenant SR-IOV virtualization for the simulator.

    Production SmartNICs are shared devices: SR-IOV designs in the OS4C
    mould expose hundreds of virtual functions (VFs) behind a two-stage
    weighted-round-robin transmit scheduler, and each VF's traffic must
    be scheduled, accounted and isolation-checked separately. This
    module supplies the tenant model for {!Netsim}: a {!spec} per
    tenant (scheduler weight, offered-traffic share, optional p99
    SLO), the canonicalized {!set} a run is configured with, and the
    per-tenant summaries and fairness indices read off the run's
    {!Telemetry.Table} — one row per tenant, windowed at the warmup —
    which attributes every offered, dropped and delivered packet and
    its latency terms to the owning tenant.

    {b Determinism & scale.} A [set] is canonical — specs sorted by
    tenant name, duplicate names rejected, shares normalized — so two
    permutations of the same tenant list configure byte-identical
    runs. The table is sized once at setup and recording through it
    allocates nothing, so runs with thousands of tenants add zero
    per-tenant words to the steady-state hot loop (the ledger's
    [tenant.words_per_event_delta] metric tracks it). *)

type spec = {
  name : string;  (** VF / tenant label; unique within a set *)
  weight : int;  (** WRR scheduler weight, >= 1 *)
  share : float;
      (** relative share of offered traffic attributed to this tenant
          (> 0; normalized across the set) *)
  slo_p99 : float option;  (** p99 latency budget, seconds *)
  class_weights : int array;
      (** per-traffic-class WRR weights within this tenant's queue
          group (stage 2 of the arbiter); [[||]] (the default) means
          equal weight for every class *)
}

val spec :
  ?weight:int ->
  ?share:float ->
  ?slo_p99:float ->
  ?class_weights:int array ->
  string ->
  spec
(** [weight] defaults to 1, [share] to 1, [class_weights] to [[||]].
    Raises [Invalid_argument] on an empty name, [weight < 1], a
    non-positive [share], a non-positive SLO, or a class weight < 1. *)

type set
(** A canonicalized tenant population (sorted by name, names unique). *)

val set : spec list -> set
(** Canonicalize a tenant list. Raises [Invalid_argument] on an empty
    list or a duplicate name. *)

val uniform : ?prefix:string -> int -> set
(** [uniform n] is [n] equal-weight, equal-share tenants named
    [PREFIX0000..] ([prefix] defaults to ["vf"]) — the scale-test
    population. Raises [Invalid_argument] when [n < 1]. *)

val count : set -> int

val specs : set -> spec array
(** The canonical (name-sorted) specs; a fresh copy. *)

val weights : set -> int array
(** Scheduler weights in canonical order; a fresh copy. *)

val shares : set -> float array
(** Normalized offered-traffic shares in canonical order (sums to 1). *)

val class_weight_rows : set -> classes:int -> int array array
(** One stage-2 WRR row per tenant (canonical order), each padded with
    weight 1 out to [classes] entries — the [class_weights] argument of
    {!Ip_node.create_hierarchical}. Raises [Invalid_argument] when
    [classes < 1]. *)

val index_of : set -> float -> int
(** [index_of set u] maps [u ∈ \[0, 1)] to a tenant id by binary search
    over the cumulative share distribution — the per-arrival tenant
    draw. Allocation-free. *)

val index_of_bits : set -> int -> int
(** [index_of_bits set u] maps a 30-bit draw ([u ∈ \[0, 2^30)], from
    {!Lognic_numerics.Rng.bits}) to a tenant id through a Walker alias
    table: one multiply, two loads, one compare — O(1) with no
    data-dependent branch chain, where a binary search pays log₂ n
    mispredicted branches per draw. The simulator's per-arrival path;
    allocation-free, per-tenant probabilities exact to n·2^-30. *)

(** {2 Summaries} *)

type row = {
  r_name : string;
  r_weight : int;
  r_share : float;  (** configured normalized share *)
  r_offered : int;
  r_delivered : int;
  r_dropped : int;
  r_delivered_bytes : float;
  r_offered_rate : float;  (** offered bytes/s within the window *)
  r_throughput : float;  (** delivered bytes/s within the window *)
  r_mean_latency : float;  (** 0 when nothing was delivered *)
  r_p99_latency : float;
      (** log₂-bucket upper-bound estimate, clamped to the observed
          maximum *)
  r_max_latency : float;
  r_terms : Telemetry.latency_terms;
      (** per-delivered-packet mean decomposition *)
  r_slo_p99 : float option;
  r_slo_ok : bool option;
      (** [Some (p99 <= slo)] when an SLO is declared and at least one
          packet was delivered *)
}

(** Fairness / isolation indices over the tenant population. *)
type fairness = {
  maxmin_ratio : float;
      (** min over {e constrained} tenants (offered > fair share) of
          attained / weighted-max-min-fair throughput; 1 when every
          constrained tenant receives at least its fair share, and 1
          when nobody is constrained *)
  jain : float;
      (** Jain's fairness index over weight-normalized delivered rates
          of active tenants ((Σx)²/(n·Σx²)); 1 = allocation exactly
          proportional to weights. Demand-limited tenants lower the
          index by construction — read it together with
          [maxmin_ratio]. *)
  interference : float;
      (** noisy-neighbor index: worst / best mean latency across active
          tenants; 1 = perfect isolation, grows as heavy tenants
          inflate their neighbours' latencies *)
}

type stats = {
  t_window : float;  (** measured seconds (horizon − warmup) *)
  rows : row array;  (** canonical (name-sorted) order *)
  t_fairness : fairness;
}

val summarize : set -> Telemetry.Table.t -> horizon:float -> stats
(** Per-tenant rows and fairness from the run's tenant table (row [i]
    is the [i]-th canonical tenant); the window is [horizon] minus the
    table's cutoff. *)

val live_fairness : set -> Telemetry.Table.t -> horizon:float -> fairness
(** The fairness indices alone — the cheap mid-run snapshot behind the
    {!Metrics} gauges (no per-tenant rows are built). *)

val stats_to_json : stats -> Telemetry.Json.t
(** Plain object ([window], [tenants], [fairness]) — embedded by
    {!Explain.tenants_to_json} under the versioned ["tenants"]
    schema. *)
