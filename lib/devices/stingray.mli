(** The Broadcom Stingray PS1100R device model (§4.1, §4.3).

    An off-path SmartNIC JBOF head: 8 × 3.0 GHz ARM A72 cores, 8 GB
    DDR4-2400, a 100 GbE NetXtreme NIC, and NVMe SSDs behind PCIe. The
    NVMe-oF (NVMe-over-RDMA) target process runs on the NIC cores:
    RDMA stack processing and NVMe command fabrication on the
    submission path (IP1), SSD access (IP2), completion handling and
    response-packet construction (IP3) — the execution graph of
    Figure 2(c). *)

val hardware : Lognic.Params.hardware

val nvme_of_graph : ?gc:Ssd.gc_mode -> io:Ssd.io -> unit -> Lognic.Graph.t
(** Figure 2(c)'s graph for the given I/O profile: ingress → IP1
    (submission cores) → IP2 ({!Ssd.default}) → IP3 (completion cores)
    → egress. Edges 1/4 cross the SoC interconnect (α); edges 2/3 cross the
    interconnect and DRAM (α and β); the core↔SSD hop also rides the
    SSD's internal bus, modeled as a dedicated-bandwidth edge. The
    "packet" granularity of this graph is the I/O size. *)
