(** The Broadcom Stingray PS1100R device model (§4.1, §4.3).

    An off-path SmartNIC JBOF head: 8 × 3.0 GHz ARM A72 cores, 8 GB
    DDR4-2400, a 100 GbE NetXtreme NIC, and NVMe SSDs behind PCIe. The
    NVMe-oF (NVMe-over-RDMA) target process runs on the NIC cores:
    RDMA stack processing and NVMe command fabrication on the
    submission path (IP1), SSD access (IP2), completion handling and
    response-packet construction (IP3) — the execution graph of
    Figure 2(c). *)

val line_rate : float
(** 100 Gbps in bytes/s. *)

val total_cores : int
(** 8 ARM A72 cores. *)

val soc_interconnect : float
(** SoC interconnect bandwidth backing the model's interface medium. *)

val dram_bandwidth : float
(** DDR4-2400 channel bandwidth backing the memory medium. *)

val hardware : Lognic.Params.hardware

val submission_cost : float
(** Core seconds per I/O on the submission path (RDMA receive + NVMe
    command fabrication). *)

val completion_cost : float
(** Core seconds per I/O on the completion path. *)

val nvme_of_graph : ?gc:Ssd.gc_mode -> io:Ssd.io -> unit -> Lognic.Graph.t
(** Figure 2(c)'s graph for the given I/O profile: ingress → IP1
    (submission cores) → IP2 ({!Ssd.default}) → IP3 (completion cores)
    → egress. Edges 1/4 cross the SoC interconnect (α); edges 2/3 cross the
    interconnect and DRAM (α and β); the core↔SSD hop also rides the
    SSD's internal bus, modeled as a dedicated-bandwidth edge. The
    "packet" granularity of this graph is the I/O size. *)
