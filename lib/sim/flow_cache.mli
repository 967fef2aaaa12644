(** Per-packet flow identity and the two-level flow cache behind the
    simulator's state-dependent routing.

    When a run is configured with a {!Lognic.Flowcache.spec}
    ({!Netsim.Config.with_flow_cache}), every arriving packet draws a
    flow id from a Zipf-distributed population and the route out of the
    EMC and megaflow vertices is decided by an {e actual} cache lookup —
    EMC hit → the hit edge (class {e hot}); EMC miss → megaflow lookup,
    a hit promotes the flow into the EMC (class {e warm}); a megaflow
    miss takes the slow path and installs the flow in both tables
    (class {e cold}). The static δ fractions on those edges are
    ignored; everywhere else routing is unchanged.

    {b Determinism & scale.} The flow draw is a Walker alias lookup on
    a single {!Lognic_numerics.Rng.bits} draw from a dedicated flow
    rng (split after the tenant rng, before the trace rng, only when
    the flow cache is enabled — so flow-cache-off runs are byte
    identical to builds without this module, and enabled runs are bit
    identical at any [--jobs]). Both caches are fixed-capacity
    int-array LRUs (doubly linked recency list, chained hash buckets,
    lazy TTL expiry): the steady-state hot loop allocates nothing per
    flow or per packet, so million-flow populations cost setup memory
    only (the ledger's [flow_cache.words_per_event_delta] metric tracks
    it). The lookups are inlinable wrappers that store [now] into a
    clock cell the two tables share, so no float crosses a call. *)

type t
(** Runtime state: the Zipf sampler, both LRU tables, the lookup
    counters and the per-class attribution table. *)

val create : spec:Lognic.Flowcache.spec -> warmup:float -> t
(** Build the sampler and tables. Setup cost is O(flows + entries)
    memory and time; nothing further is allocated while running. *)

val table : t -> Telemetry.Table.t
(** The per-class {!Telemetry.Table}: rows 0 hot, 1 warm, 2 cold,
    cutoff [warmup]. {!Netsim} records each delivered packet that
    reached a cache vertex into its class's row; {!summarize} reads
    it. *)

val roles : Lognic.Graph.t -> int array
(** Each vertex's routing role, indexed by vertex id: [1] for the
    vertex labelled {!Lognic.Flowcache.emc_label}, [2] for
    {!Lognic.Flowcache.megaflow_label}, [0] (delta-proportional routing)
    elsewhere. Raises [Invalid_argument] unless both cache vertices
    exist with exactly two out-edges — the first added is the hit route,
    the second the miss route. *)

val draw : t -> bits:int -> int
(** Map a 30-bit draw ([0, 2^30)) to a flow id with popularity
    Zipf(spec.zipf) — one multiply, two loads, one compare;
    probabilities exact to flows·2⁻³⁰. *)

val emc_lookup : t -> now:float -> flow:int -> bool
(** Probe the EMC; a hit refreshes recency (and the TTL stamp). Counted
    toward the measured hit ratio when [now] is past warmup. *)

val mega_lookup : t -> now:float -> flow:int -> bool
(** Probe the megaflow table (call only on an EMC miss). A hit promotes
    the flow into the EMC; a miss installs it in both tables — the
    slow-path classification's rule insertion. *)

(** {2 Summaries} *)

type class_row = {
  c_name : string;  (** ["hot"], ["warm"] or ["cold"] *)
  c_share : float;  (** fraction of classified delivered packets *)
  c_count : int;
  c_throughput : float;  (** delivered bytes/s within the window *)
  c_mean_latency : float;  (** 0 when nothing was delivered *)
  c_p99_latency : float;
      (** log₂-bucket upper-bound estimate, clamped to the observed
          maximum *)
  c_max_latency : float;
}

type stats = {
  fc_window : float;  (** measured seconds (horizon − warmup) *)
  fc_flows : int;
  fc_zipf : float;
  fc_emc_entries : int;
  fc_megaflow_entries : int;
  fc_emc_lookups : int;  (** post-warmup EMC probes *)
  fc_emc_hits : int;
  fc_mega_lookups : int;  (** post-warmup megaflow probes (EMC misses) *)
  fc_mega_hits : int;
  fc_emc_hit_ratio : float;
  fc_mega_hit_ratio : float;  (** conditional, among EMC misses *)
  fc_overall_hit_ratio : float;  (** 1 − slow-path share *)
  fc_classes : class_row array;  (** hot, warm, cold — in that order *)
}

val summarize : t -> horizon:float -> stats

val stats_to_json : stats -> Telemetry.Json.t
(** Plain object — embedded by [Explain.flowcache_to_json] under the
    versioned ["flowcache"] schema. *)
