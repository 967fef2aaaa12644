(** Regeneration of every evaluation figure in the paper (§4).

    Each [figN] function prints the figure's rows/series to the given
    formatter — same quantities and units as the paper plots — using
    the analytical model for "LogNIC" series and the packet-level
    simulator for "Measured" series. [all] runs the complete set.

    [quick] trades simulation time for speed (shorter sim horizons);
    the default durations target stable steady-state measurements. *)

type speed = Quick | Full

val fig5 : ?speed:speed -> Format.formatter -> unit
(** Accelerator throughput vs data-access granularity. *)

val fig6 : ?speed:speed -> Format.formatter -> unit
(** NVMe-oF latency vs throughput for the three I/O profiles. *)

val fig7 : ?speed:speed -> Format.formatter -> unit
(** Mixed 4 KB random I/O bandwidth vs read ratio. *)

val fig9 : ?speed:speed -> Format.formatter -> unit
(** Throughput vs IP1 parallelism under line rate. *)

val fig10 : ?speed:speed -> Format.formatter -> unit
(** Achieved bandwidth vs packet size under line rate. *)

val fig11 : Format.formatter -> unit
(** Microservice throughput across allocation schemes. *)

val fig12 : Format.formatter -> unit
(** Microservice average latency across allocation schemes. *)

val fig13 : Format.formatter -> unit
(** NF-chain throughput vs packet size across placements. *)

val fig14 : Format.formatter -> unit
(** NF-chain latency vs packet size across placements. *)

val fig15 : ?speed:speed -> Format.formatter -> unit
(** PANIC bandwidth vs credits for the four traffic profiles. *)

val fig16 : Format.formatter -> unit
(** PANIC steering latency: static splits vs the LogNIC split. *)

val fig17 : Format.formatter -> unit
(** PANIC steering throughput. *)

val fig18 : Format.formatter -> unit
(** PANIC latency vs IP4 parallel degree. *)

val fig19 : Format.formatter -> unit
(** PANIC throughput vs IP4 parallel degree. *)

val table2 : Format.formatter -> unit
(** The model-parameter glossary. *)

val ext_tail : ?speed:speed -> Format.formatter -> unit
(** Extension: model tail-latency percentiles validated against the
    simulator (see {!Lognic.Tail}). *)

val ext_hol : ?speed:speed -> Format.formatter -> unit
(** Extension: the head-of-line blocking study
    (see {!Hol_study}). *)

val ext_queue_models : Format.formatter -> unit
(** Ablation: mean latency under the four queueing models. *)

val ext_hybrid : Format.formatter -> unit
(** Extension: E3's NIC/host hybrid migration (§4.4) — best crossing
    point and capacity gain per workload, plus the M/G/1 view of the
    Fig 15 model-vs-sim gap. *)

val ext_offpath : Format.formatter -> unit
(** Extension: the §2.1 on-path/off-path deployment comparison
    (see {!Offpath_study}). *)

val ext_netcache : ?speed:speed -> Format.formatter -> unit
(** Extension: the §5.3 programmable-switch generalization — an
    in-network KV cache hit-ratio sweep (see {!Netcache}). *)

val ext_observability : ?speed:speed -> Format.formatter -> unit
(** Extension: the simulator's observability layer on the validation
    chain — Eq 2 latency decomposition (queueing / service / wire /
    overhead), loss and top drop site per load, and the bottleneck's
    peak sampled queue depth from its [queue_depth] gauge history
    ({!Lognic_sim.Metrics.series}). *)

val names : string list
(** All renderable ids: "fig5".."fig19", "table2", and the extension
    sections "ext-tail", "ext-hol", "ext-queue-models",
    "ext-netcache", "ext-offpath", "ext-hybrid". *)

val render : ?speed:speed -> string -> Format.formatter -> (unit, string) result
(** Render one figure by id. *)

val all : ?speed:speed -> ?jobs:int -> Format.formatter -> unit
(** Render every figure. [jobs] (default
    {!Lognic_numerics.Parallel.default_jobs}) renders figures
    concurrently into per-figure buffers; the emitted text is
    byte-identical to a sequential run. *)
