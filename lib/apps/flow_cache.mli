(** The flow-cache offload scenario (ROADMAP item 3's "millions of
    users" datapath): an OVS-style EMC → megaflow → slow-path
    classification pipeline on the LiquidIO cores, built for the
    state-dependent split machinery ({!Lognic.Flowcache} on the model
    side, [Lognic_sim.Flow_cache] in the simulator).

    Graph shape (labels fixed so both sides find the cache vertices):

    {v rx ─→ emc ─hit──────────────────→ tx
              └miss→ megaflow ─hit─────→ tx
                       └miss→ slowpath ─→ tx v}

    At each cache vertex the {e hit} route is the first out-edge added
    and the miss route the second — the convention the per-packet
    lookup and the fixed-point solver both rely on. *)

type config = {
  packet_size : float;  (** bytes per packet *)
  emc_cores : int;  (** cnMIPS cores running exact-match lookups *)
  megaflow_cores : int;  (** cores running the tuple-space search *)
  slowpath_cores : int;  (** cores running full classification *)
  emc_cost_cycles : float;  (** cycles per EMC probe *)
  megaflow_cost_cycles : float;  (** cycles per megaflow search *)
  slowpath_cost_cycles : float;  (** cycles per slow-path upcall *)
  slowpath_overhead : float;
      (** seconds of computation-transfer overhead per slow-path packet
          (the host round trip, per the off-path characterization
          study) *)
}

val default : config
(** 512 B packets; 4/8/4 cores at 300/1500/20000 cycles; a 20 µs
    slow-path round trip. *)

val graph : config -> Lognic.Graph.t
(** Build the datapath with initial split fractions of 0.5 at each cache
    (the megaflow's conditional on an EMC miss) — the fixed point
    rewrites them, and the simulator's per-packet routing ignores δ at
    cache vertices. *)

val hardware : Lognic.Params.hardware
(** {!Lognic_devices.Liquidio.hardware}. *)

val traffic : ?load:float -> config -> Lognic.Traffic.t
(** Offered load as a fraction of the 25 GbE line rate (default 0.5).
    Raises [Invalid_argument] on a non-positive load. *)
