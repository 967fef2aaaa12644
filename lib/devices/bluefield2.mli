(** The NVIDIA/Mellanox BlueField-2 DPU model (§4.1, §4.5).

    An off-path Multicore-SoC card: 100 GbE, 8 × 2.5 GHz ARM A72
    cores, 16 GB DRAM, plus hardware-accelerated Crypto, RegEx, Hashing
    and Connection-Tracking blocks reachable over the SoC interconnect.

    §4.5 deploys a network-middlebox chain of five network functions —
    firewall (FW) → L4 load balancer (LB) → deep packet inspection
    (DPI) → NAT → packet encryption (PE) — where every NF except DPI can
    run either on the ARM cluster or on a matching accelerator. Placing
    an NF off-chip buys compute throughput but pays the interconnect
    crossing (α per hop) and the per-call transfer overhead O, so the
    best placement flips with packet size — the effect Figs 13/14 plot. *)

type nf = Fw | Lb | Dpi | Nat | Pe
type placement = On_arm | On_accel

val nf_name : nf -> string
val chain : nf list
(** The middlebox service chain in order. *)

val line_rate : float
(** 100 Gbps. *)

val hardware : Lognic.Params.hardware
(** interface = SoC interconnect, memory = DRAM controllers. The
    resource vector names the ARM cluster's shared LLC ([llc]) and the
    PCIe DMA engines ([pcie-dma]) for the contention layer. *)

val has_accelerator : nf -> bool
(** False only for DPI. *)

val chain_graph :
  ?cores:int ->
  placement_of:(nf -> placement) ->
  packet_size:float ->
  unit ->
  Lognic.Graph.t
(** Builds the execution graph of the chain under a placement. ARM NFs
    (and the shepherd stages of accelerated NFs) are virtual IPs of the
    core cluster, partitioned in proportion to their per-packet cost so
    the cluster's cycles are work-balanced. Accelerated NFs appear as
    shepherd → accelerator vertex pairs whose edges cross the
    interconnect. *)

val placements : unit -> (nf -> placement) list
(** All 16 valid placements (DPI pinned to ARM), for exhaustive
    placement search. *)
