(** A programmable RMT switch (Tofino-class) — the §5.3 generalization.

    The paper closes its related-work discussion with "we believe the
    LogNIC model can support programmable switches by designing a new
    set of system interfaces". This device model provides that
    interface set:

    - the match-action {e pipeline} is a single packet-rate-bound IP
      (a packet occupies one pipeline slot per pass, whatever its
      size), with its deep pipelining expressed through the parallelism
      degree D so per-packet latency is the full pipeline depth while
      throughput stays one packet per clock;
    - on-chip {e register/SRAM} accesses are charged to the memory
      medium via β (bytes of stateful access per packet);
    - {e recirculation} — a packet re-entering the pipeline for more
      computation — would create a cycle, so it is unrolled: a second
      pipeline vertex processes the recirculated fraction δ_r, sharing
      the physical pipeline through the γ partition parameter. *)

val line_rate : float
(** 3.2 Tbps aggregate switching capacity. *)

val hardware : Lognic.Params.hardware
(** interface = the switching crossbar; memory = the register/SRAM
    subsystem. *)

val pipeline_service :
  ?partition:float -> packet_size:float -> unit -> Lognic.Graph.service
(** The pipeline as a graph vertex for the given packet size:
    throughput = pps × size (packet-rate bound), D sized so service
    time equals the 400 ns pipeline depth. *)

val forwarding_graph :
  ?recirculate:float ->
  ?register_bytes_per_packet:float ->
  packet_size:float ->
  unit ->
  Lognic.Graph.t
(** Plain L2/L3 forwarding: ingress → pipeline → egress, with an
    optional recirculated fraction taking a second (unrolled) pass and
    per-packet register traffic on the memory medium. Raises
    [Invalid_argument] if [recirculate] is outside [0, 1). *)
