(** The Marvell LiquidIO-II CN2360 device model (§4.1, Figure 8).

    An on-path Multicore-SoC SmartNIC: 25 GbE ports, 16 × 1.5 GHz
    cnMIPS cores, 4 GB DRAM, on-chip crypto units behind the coherent
    memory interconnect (CMI, 50 Gbps) and off-chip HFA/ZIP engines
    behind the I/O interconnect (40 Gbps).

    Medium mapping: the I/O interconnect is the model's shared
    {e interface}; the CMI is the {e memory} medium. *)

val line_rate : float
(** 25 Gbps in bytes/s. *)

val total_cores : int
(** 16 cnMIPS cores. *)

val hardware : Lognic.Params.hardware
(** interface = I/O interconnect, memory = CMI. The resource vector
    names the L2 fill path ([l2-fill]) and the DDR3 channel ([dram])
    for the multi-resource contention layer. *)

val inline_accel_graph :
  ?cores:int ->
  ?granularity:float ->
  spec:Accel_spec.t ->
  packet_size:float ->
  unit ->
  Lognic.Graph.t
(** The §4.2 bump-in-the-wire execution graph:
    ingress → IP1 (NIC cores) → IP2 (accelerator) → IP3 (NIC cores) →
    egress, where IP3 mirrors IP1's parallelism (the paper's experiments
    run submission and completion on the same cores; IP1/IP3 each get a
    γ = 0.5 share of the cluster).  [cores] defaults to all 16;
    [granularity] (default [packet_size]) is the accelerator's
    data-access size per operation — the Fig 5 knob — and sets the α or
    β of the core→accelerator and accelerator→core edges depending on
    the engine's medium. *)

val microservice_core_rate : cost_cycles:float -> cores:int -> float
(** Requests/s of a [cores]-core cluster running a Microservice stage
    that costs [cost_cycles] cycles per request (1.5 GHz cnMIPS). *)
