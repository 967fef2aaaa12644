(** Software execution graphs (§3.3).

    A SmartNIC-offloaded program is a directed acyclic graph whose
    vertices are hardware entities a packet visits — the ingress engine,
    IP blocks (NIC cores, accelerators, opaque devices like an SSD), and
    the egress engine — and whose edges are data movements between them
    over the interface and/or the memory subsystem.

    Per-edge parameters (Table 2):
    - [delta] (δ): fraction of the total ingress workload W that crosses
      this edge;
    - [alpha] (α): fraction of W this edge pushes over the shared SoC
      {e interface};
    - [beta] (β): fraction of W this edge pushes through the {e memory}
      subsystem;
    - [bandwidth]: optional dedicated IP-IP link capacity (BW_mn), for
      point-to-point fabrics characterized separately.

    Per-vertex parameters live in {!type:service}. *)

type vertex_id = int

type kind =
  | Ingress  (** wire/PCIe entry engine *)
  | Egress  (** wire/PCIe exit engine *)
  | Ip  (** an IP block: CPU cluster, accelerator, DSP, opaque device *)

type service = {
  throughput : float;
      (** P_vi — aggregate computing throughput of the (physical) IP in
          bytes/s of consumed traffic. For ingress/egress this is the
          port line rate. *)
  parallelism : int;
      (** D_vi — number of requests concurrently sharing the IP; scales
          the per-request service time in the latency model (Eq 7). *)
  queue_capacity : int;
      (** N_vi — virtual shared queue capacity (entries) for the M/M/1/N
          queueing term (Eq 12). *)
  overhead : float;
      (** O_i — computation-transfer overhead in seconds paid when this
          vertex hands work to the next one (Eq 5). *)
  accel : float;
      (** A_i — kernel acceleration factor dividing the compute term
          (≥ 1 speeds the IP up; default 1). *)
  partition : float;
      (** γ_vi ∈ (0, 1] — share of the physical IP this (virtual) vertex
          owns under multiplexing (Extension #1). *)
}

val default_service : service
(** Infinite throughput, parallelism 1, queue capacity 64, no overhead,
    accel 1, full partition — a transparent vertex. *)

val effective_rate : service -> float
(** [partition × accel × throughput]: the bytes/s this (virtual) vertex
    serves — the rate every model equation and the simulator's engines
    divide work by. *)

val service :
  ?parallelism:int ->
  ?queue_capacity:int ->
  ?overhead:float ->
  ?accel:float ->
  ?partition:float ->
  throughput:float ->
  unit ->
  service
(** Builder with defaults from {!default_service}; raises
    [Invalid_argument] on out-of-domain values. *)

type vertex = private {
  id : vertex_id;
  kind : kind;
  label : string;
  service : service;
}

val unservable : vertex -> packet_size:float -> 'a
(** Raises [Invalid_argument] naming the vertex: its service time for
    one [packet_size]-byte packet overflows to infinity (a rate so
    small that size / rate is not a float). The model and the
    simulator both reject such a vertex rather than compute with an
    infinite service time, whose queueing terms are [inf − inf]. *)

type edge = private {
  src : vertex_id;
  dst : vertex_id;
  delta : float;
  alpha : float;
  beta : float;
  bandwidth : float option;
}

type t

val empty : t

val add_vertex : kind:kind -> label:string -> service:service -> t -> t * vertex_id
(** Vertex ids are assigned densely from 0 in insertion order. *)

val add_edge :
  ?delta:float ->
  ?alpha:float ->
  ?beta:float ->
  ?bandwidth:float ->
  src:vertex_id ->
  dst:vertex_id ->
  t ->
  t
(** [delta] defaults to 1 (the full workload crosses), [alpha]/[beta] to
    0 (no shared-medium usage). Raises [Invalid_argument] on unknown
    vertices, self loops, negative parameters, or a duplicate
    (src, dst) pair. *)

(** {1 Accessors} *)

val vertex : t -> vertex_id -> vertex
(** Raises [Invalid_argument] on an unknown id. *)

val vertices : t -> vertex list
(** In id order. *)

val edges : t -> edge list
val edge : t -> src:vertex_id -> dst:vertex_id -> edge option
val in_edges : t -> vertex_id -> edge list
val out_edges : t -> vertex_id -> edge list
val in_degree : t -> vertex_id -> int
val ingress_vertices : t -> vertex list
val vertex_count : t -> int

val find_vertex : t -> label:string -> vertex option
(** First vertex with the given label, if any. *)

(** {1 Mutation (functional)} *)

val update_service : t -> vertex_id -> (service -> service) -> t

val set_edge_params :
  ?delta:float -> ?alpha:float -> ?beta:float -> ?bandwidth:float option ->
  src:vertex_id -> dst:vertex_id -> t -> t
(** Replace selected parameters of an existing edge. Raises
    [Invalid_argument] if the edge does not exist. *)

val remove_edge : src:vertex_id -> dst:vertex_id -> t -> t
(** Raises [Invalid_argument] if the edge does not exist. *)

val scale_out_split : t -> vertex_id -> float list -> t
(** [scale_out_split g v fractions] reassigns the δ/α/β of [v]'s
    out-edges (in {!out_edges} order) so that they keep their current
    total but are split according to [fractions] (which are normalized
    first). Each edge's α and β are rescaled proportionally to its new
    δ, preserving the per-edge medium mix. Raises [Invalid_argument] on
    a length mismatch, or — naming the vertex — on negative, NaN,
    infinite, or all-zero fractions (an all-zero list would otherwise
    divide by zero and poison every out-edge with NaN δ/α/β). *)

(** {1 Analysis} *)

val topological_order : t -> vertex_id list option
(** [None] when the graph has a cycle. *)

val paths_capped :
  ?limit:int -> t -> vertex_id list list * [ `Complete | `Truncated ]
(** Every ingress→egress path (vertex ids in order), up to [limit]
    (default 10_000): on a path explosion it returns the first [limit]
    paths in enumeration order tagged [`Truncated] — how {!Latency}
    (and the explain engine on top of it) degrades to a top-K path
    approximation on combinatorial graphs. *)

val validate : t -> (unit, string list) result
(** Structural checks: at least one ingress and one egress, acyclicity,
    and every IP vertex reachable from an ingress and co-reachable to an
    egress. Note that an edge's [alpha + beta] may legitimately exceed
    its [delta]: §4.7 folds an IP's internal interface/memory accesses
    (data-structure traversals, oversized accelerator fetches) into its
    edge's medium-usage parameters. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable dump (used by the CLI's [validate]). *)
