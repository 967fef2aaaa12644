(** Extended Roofline of an IP (§3.2).

    LogNIC repurposes the Roofline model with two changes: (1) several
    bandwidth ceilings, one per data source feeding the IP (SoC
    interconnect, memory hierarchy, dedicated fabric); (2) {e packet
    intensity} — IP-specific operations per byte of packet transmission —
    replaces arithmetic intensity. The attainable operation rate is

    [min(peak_ops, min_i (bw_i * intensity))].  *)

type ceiling = { name : string; bandwidth : float (** bytes/s *) }

type t = {
  label : string;
  peak_ops : float;  (** ops/s at full parallelism *)
  ceilings : ceiling list;
}

val attainable_bytes : t -> intensity:float -> float
(** The attainable operation rate expressed as consumable traffic
    (bytes/s): [min(peak_ops, min_i (bw_i * intensity)) / intensity]. *)

val binding_ceiling : t -> intensity:float -> string
(** Name of the binding constraint: a ceiling name, or ["compute"]. *)

val of_vertex :
  Graph.t ->
  hw:Params.hardware ->
  packet_size:float ->
  Graph.vertex_id ->
  t option
(** The roofline of a graph vertex at a packet size, in {e packet
    traffic} units: the compute roof is γ·A·P/g packets/s (one
    IP-operation per packet), and each ceiling is a medium's
    packet-traffic capacity — BW_INTF/Σα, BW_MEM/Σβ, BW_link/δ over the
    vertex's incoming edges. Evaluate with [~intensity:(1. /.
    packet_size)]; [attainable_bytes] then reproduces the vertex's
    {!Throughput} cap restricted to its own media. [None] for
    infinite-throughput vertices. *)
