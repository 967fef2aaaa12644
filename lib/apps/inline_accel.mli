(** Case study #1 — inline (bump-in-the-wire) acceleration on the
    LiquidIO-II CN2360 (§4.2; Figs 5, 9, 10).

    A UDP-echo server extended with an accelerator call per packet:
    NIC cores (IP1) pull packets, run L3/L4 processing and trigger the
    engine (IP2); completion-side cores (IP3) fabricate the response.
    "Measured" numbers come from the packet-level simulator; "model"
    numbers from the analytical estimate on the same graph.

    All sweeps follow the {!Study} entry-point conventions:
    [?duration] / [?seed] / [?jobs]. *)

type point = {
  x : float;  (** the swept quantity (granularity, cores, or bytes) *)
  model : float;  (** analytic estimate *)
  measured : float;  (** simulator measurement *)
}

val fig5_granularity_sweep :
  ?duration:float ->
  ?seed:int ->
  ?jobs:int ->
  spec:Lognic_devices.Accel_spec.t ->
  unit ->
  point list
(** Accelerator operation rate (ops/s) with 1 KB traffic at line rate as
    the per-call data-access granularity doubles from 512 B to 16 KB.
    The drop past a few KB is the medium-bandwidth ceiling (CMI or I/O
    interconnect). *)

val fig9_parallelism_sweep :
  ?duration:float ->
  ?seed:int ->
  ?jobs:int ->
  ?cores:int list ->
  spec:Lognic_devices.Accel_spec.t ->
  unit ->
  point list
(** Achieved operation rate under MTU line rate as the NIC-core count
    allocated to IP1/IP3 grows (default 1..16). *)

val required_cores : spec:Lognic_devices.Accel_spec.t -> int
(** The model-predicted knee of Fig 9: the fewest cores that reach 99%
    of the engine's saturation rate (9/8/11 for MD5/KASUMI/HFA). *)

val fig10_packet_size_sweep :
  ?duration:float ->
  ?seed:int ->
  ?jobs:int ->
  ?sizes:float list ->
  spec:Lognic_devices.Accel_spec.t ->
  unit ->
  point list
(** Achieved bandwidth (bytes/s) under line-rate offered load as packet
    size grows from 64 B to MTU, with all 16 cores: the
    min(P_IP2 · pktsize, line rate) law of §4.2. *)

val bottleneck_at :
  spec:Lognic_devices.Accel_spec.t ->
  packet_size:float ->
  cores:int ->
  string
(** Human-readable binding constraint for a configuration (used by the
    examples to echo §4.2's bottleneck attribution). *)
