(** The PANIC programmable-NIC model (§4.6, after Lin et al. OSDI'20).

    PANIC's architecture: an RMT pipeline producing per-packet offload
    descriptors, a switching fabric interconnecting everything, a
    central credit-based scheduler, and a pool of compute units the
    scheduler chains packets through. Configurable knobs we expose —
    matching the paper's three design-exploration scenarios — are the
    per-unit credit count (its request-queue capacity), the scheduler's
    traffic-steering split, and the per-unit hardware parallelism.

    The three §4.6 execution-graph templates come from PANIC's own
    evaluation models: Model 1 "Pipelined Chain" (units in series),
    Model 2 "Parallelized Chain" (units in parallel behind the
    scheduler) and Model 3 "Hybrid Chain". *)

val hardware : Lognic.Params.hardware
(** interface = the switching fabric; memory = on-chip packet buffer. *)

val unit_a_params : float * float
(** (per-packet seconds, byte bandwidth) of Model 1's first compute
    unit — exposed for the M/G/1 service-variability analysis. *)

val effective_unit_rate : float * float -> sizes:(float * float) list -> float
(** [effective_unit_rate (c_pp, bw) ~sizes] is a compute unit's
    aggregate serving rate (bytes/s) under a weighted packet-size mix:
    [1/(c_pp · E(1/s) + 1/bw)]. The harmonic-mean packet size drives
    the per-packet term, which is why small-packet-heavy profiles need
    more credits in Fig 15. *)

val pipelined_graph :
  ?credits:int -> sizes:(float * float) list -> unit -> Lognic.Graph.t
(** Model 1: ingress → RMT → scheduler → unit A → unit B → egress, with
    each compute unit's queue capacity set to [credits] (default 8, the
    PANIC paper's default provisioning) and unit throughputs set to
    their effective rates under the given size mix. *)

val parallelized_graph :
  ?credits:int ->
  split:float * float * float ->
  packet_size:float ->
  unit ->
  Lognic.Graph.t
(** Model 2: scheduler fans out to A1/A2/A3 whose computing-throughput
    ratio is 4:7:3 (§4.6 scenario 2), with the given traffic split
    (normalized). *)

val hybrid_graph :
  ?credits:int ->
  ?ip4_parallelism:int ->
  ip1_split:float * float ->
  packet_size:float ->
  unit ->
  Lognic.Graph.t
(** Model 3 (modified, §4.6 scenario 3): ingress traffic splits 70/30
    to IP1/IP2; IP1 fans out to IP3/IP4 by [ip1_split]; IP2 feeds IP4;
    IP3 and IP4 merge into egress. [ip4_parallelism] (default 1) scales
    IP4's engine count — the Fig 18/19 knob. *)
