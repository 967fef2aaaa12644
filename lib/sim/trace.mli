(** Opt-in per-packet lifecycle tracing for the simulator.

    When enabled ({!Netsim.config.trace}), the simulator records every
    segment of a sampled packet's walk through the graph — queue waits,
    per-engine service, per-medium wire time, fixed overheads — plus its
    arrival and its fate (delivery or drop, with the drop site). Memory
    stays bounded however long the run via deterministic reservoir
    sampling (Algorithm L) over packets: the reservoir holds a uniform
    sample of [config.reservoir] packets, and the sampling decisions
    are a pure function of a dedicated rng split from the run seed, so
    traced runs remain bit-identical at any [--jobs] count.

    A packet's walk is strictly sequential, so its recorded spans tile
    [born, delivered] exactly: in recording order the spans are the
    timeline, and their durations sum to the recorded end-to-end
    latency.

    {!to_chrome_json} renders the whole trace in Chrome trace-event
    (catapult) JSON, loadable in Perfetto / [chrome://tracing]: one
    process of per-packet lifecycle rows, plus one process per entity
    whose rows are engine lanes. *)

type config = { reservoir : int  (** packets held *) }

type phase =
  | Queue  (** waiting in an IP queue or for medium admission *)
  | Service  (** execution-engine occupancy *)
  | Wire  (** transfer across a medium *)
  | Overhead  (** fixed per-vertex computation-transfer overhead *)

type span = {
  entity : string;  (** vertex label or medium label *)
  lane : int;  (** engine index within the entity (0 for media) *)
  phase : phase;
  start : float;  (** simulated seconds *)
  duration : float;
}

type fate =
  | Pending
  | Delivered of float
  | Dropped of { site : string; time : float }

type record = {
  packet : int;
  born : float;
  size : float;
  klass : int;
  mutable fate : fate;
  mutable rev_spans : span list;  (** newest first *)
  mutable live : bool;
      (** false once evicted from the reservoir; dead records ignore
          further spans (they are unreachable from {!records}) *)
}

type t

val create : config:config -> rng:Lognic_numerics.Rng.t -> unit -> t
(** Raises [Invalid_argument] on a reservoir capacity < 1. The [rng]
    must be dedicated to the trace (split from the run seed) so that
    enabling tracing perturbs no other stochastic stream. *)

val seen : t -> int
(** Packets offered to the reservoir so far. *)

val on_packet :
  t -> packet:int -> born:float -> size:float -> klass:int -> record option
(** Reservoir admission for a freshly generated packet: [Some record]
    if the packet is (currently) sampled — record spans into it — or
    [None] if it lost the draw. Call exactly once per packet, in
    generation order. *)

val add_span :
  record ->
  entity:string ->
  lane:int ->
  phase:phase ->
  start:float ->
  duration:float ->
  unit
(** Zero-duration spans are discarded. *)

val deliver : record -> time:float -> unit
val drop : record -> site:string -> time:float -> unit

val records : t -> record list
(** Records still held by the reservoir, in packet-id order. *)

val to_chrome_json : t -> Telemetry.Json.t
(** Chrome trace-event JSON ([ts]/[dur] in microseconds):
    process "packets" has one row per sampled packet (all phases plus
    arrival / delivery / drop instants); each entity is its own process
    whose rows are engine lanes carrying service / wire slices. *)

val to_chrome_string : t -> string
