(** Regeneration of every evaluation figure in the paper (§4).

    Each figure prints its rows/series to the given formatter — same
    quantities and units as the paper plots — using the analytical
    model for "LogNIC" series and the packet-level simulator for
    "Measured" series. [all] runs the complete set.

    [quick] trades simulation time for speed (shorter sim horizons);
    the default durations target stable steady-state measurements. *)

type speed = Quick | Full

val table2 : Format.formatter -> unit
(** The model-parameter glossary. *)

val names : string list
(** All renderable ids, in rendering order:
    - ["fig5"]: accelerator throughput vs data-access granularity;
    - ["fig6"]: NVMe-oF latency vs throughput for the three I/O
      profiles;
    - ["fig7"]: mixed 4 KB random I/O bandwidth vs read ratio;
    - ["fig9"]: throughput vs IP1 parallelism under line rate;
    - ["fig10"]: achieved bandwidth vs packet size under line rate;
    - ["fig11"], ["fig12"]: microservice throughput and average
      latency across allocation schemes;
    - ["fig13"], ["fig14"]: NF-chain throughput and latency vs packet
      size across placements;
    - ["fig15"]: PANIC bandwidth vs credits for the four traffic
      profiles;
    - ["fig16"], ["fig17"]: PANIC steering latency and throughput,
      static splits vs the LogNIC split;
    - ["fig18"], ["fig19"]: PANIC latency and throughput vs IP4
      parallel degree;
    - ["table2"]: the model-parameter glossary;
    - ["ext-tail"]: model tail-latency percentiles against the
      simulator ({!Lognic.Tail});
    - ["ext-hol"]: the head-of-line blocking study ({!Hol_study});
    - ["ext-queue-models"]: mean latency under the four queueing
      models;
    - ["ext-netcache"]: the §5.3 in-network KV cache hit-ratio sweep
      ({!Netcache});
    - ["ext-offpath"]: the §2.1 on-path/off-path comparison
      ({!Offpath_study});
    - ["ext-hybrid"]: E3's NIC/host hybrid migration (§4.4) and the
      M/G/1 view of the Fig 15 model-vs-sim gap;
    - ["ext-observability"]: the Eq 2 latency decomposition, loss and
      top drop site per load, and the bottleneck's peak sampled queue
      depth ({!Lognic_sim.Metrics.series}). *)

val render : ?speed:speed -> string -> Format.formatter -> (unit, string) result
(** Render one figure by id. *)

val all : ?speed:speed -> ?jobs:int -> Format.formatter -> unit
(** Render every figure. [jobs] (default: the parallelism set by
    {!Lognic_numerics.Parallel.set_default_jobs}) renders figures
    concurrently into per-figure buffers; the emitted text is
    byte-identical to a sequential run. *)
