(** Measurement collection for simulation runs.

    {b The window rule.} Every account in this module — the aggregate
    {!t} and each {!Table} — attributes a packet by its {e birth} time:
    the packet counts, in every field it touches (offered, dropped,
    delivered, bytes, latency), when it was born at or past the
    cutoff, and in none of them otherwise, whenever the drop or the
    delivery happens. For {!t} and the tenant and flow-cache tables
    the cutoff is the run's warmup, so the empty-system transient
    never pollutes steady-state statistics and the offered / delivered
    / dropped accounts always agree ([loss_rate <= 1]); the fault-bin
    table uses cutoff 0, so every packet counts.

    Beyond the aggregate summary, this module is the simulator's
    observability layer (§3.2's promise that the model points at the
    {e specific} entity that binds): drops carry their site, delivered
    packets carry a per-component latency decomposition that mirrors the
    Eq. 2 terms, per-entity {!Table} rows attribute packets to tenants,
    flow-cache classes and fault sub-intervals, periodic state samples
    land in bounded ring-buffer {!Series}, and everything exports as
    JSON ({!to_json}, {!Json}) or CSV ({!Series.to_csv}). *)

(** A dependency-free JSON tree with a printer and a parser, so exported
    traces can be round-trip tested without adding a JSON library. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact one-line JSON. Non-finite numbers print as [null];
      integral values print without a decimal point; other floats use
      the shortest representation that parses back exactly. *)

  val of_string : string -> (t, string) result
  (** Inverse of {!to_string} (accepts any standard JSON text). *)

  val member : string -> t -> t option
  (** [member key (Obj kvs)] is the value bound to [key]; [None] on
      missing keys or non-objects. *)

  val float_repr : float -> string
  (** Shortest decimal string that [float_of_string] maps back to the
      same float. *)

  val write_string : Buffer.t -> string -> unit
  (** Append one JSON string literal (quotes and escaping included) —
      the exact bytes {!to_string} emits for [Str]. For streaming
      serializers that bypass the {!t} tree. *)

  val write_num : Buffer.t -> float -> unit
  (** Append one JSON number — the exact bytes {!to_string} emits for
      [Num] (non-finite values become [null]). *)

  val schema_version : int
  (** Version stamped by {!versioned} into every JSON document the repo
      emits. Bump when any exported schema changes shape. *)

  val versioned : kind:string -> (string * t) list -> t
  (** [versioned ~kind fields] is [Obj fields] prefixed with
      ["schema": kind] and ["schema_version": v] where [v] comes from
      the {!Schema} registry — the shared header used by every
      exporter ([measurement], [explain], [search_log], trace
      metadata, faults report, metrics stream). Raises
      [Invalid_argument] when [kind] is not registered in
      {!Schema.table}. *)
end

(** Bounded ring-buffer time series: appends are O(1), memory is fixed,
    and once full the newest [capacity] samples win. Used for the
    periodic queue-depth / in-flight / backlog traces. *)
module Series : sig
  type t

  val create : ?capacity:int -> label:string -> interval:float -> unit -> t
  (** [capacity] defaults to 4096 samples. Raises [Invalid_argument] on
      a non-positive capacity or interval. *)

  val label : t -> string
  val interval : t -> float
  val capacity : t -> int

  val length : t -> int
  (** Samples currently retained (≤ capacity). *)

  val add : t -> time:float -> value:float -> unit
  val to_array : t -> (float * float) array
  (** Retained [(time, value)] samples in chronological order. *)

  val to_json : t -> Json.t
  val to_csv : t -> string
  (** Two-column CSV ([time,<label>] header). *)
end

type drop_site =
  | Node_queue of { node : string; queue : int }
      (** a full bounded queue at an IP node *)
  | Medium_buffer of string
      (** a medium's rate-matching buffer overflowed (by label:
          "interface", "memory", or "link-SRC-DST") *)
  | Fault_burst
      (** shed at ingress by an active [Faults.Drop_burst] event *)

val drop_site_name : drop_site -> string
(** Stable textual key ("node:LABEL/qI" / "medium:LABEL"), also used in
    the JSON export. *)

val pp_drop_site : Format.formatter -> drop_site -> unit

(** Per-packet latency decomposition, seconds. Summed over every hop of
    a packet's walk, the four components account for its entire
    end-to-end latency, mirroring the model's Eq. 2 terms: [wire] ↔ the
    α/BW_INTF + β/BW_MEM transfer terms, [service] ↔ the s·δ/(γ·A·P)
    processing term, [overhead] ↔ o_v, and [queueing] ↔ the Eq. 12
    waiting time the latency model adds on top. *)
type latency_terms = {
  queueing : float;  (** waiting in IP queues and medium backlogs *)
  service : float;  (** execution-engine service time *)
  wire : float;  (** transfer (transmission) time across media *)
  overhead : float;  (** fixed per-vertex computation-transfer overheads *)
}

val zero_terms : latency_terms

val terms_total : latency_terms -> float
(** Sum of the four components. *)

type t

val create : warmup:float -> t

val record_arrival : t -> now:float -> size:float -> unit
(** Every offered packet (admitted or not), at its birth time [now]. *)

(** {2 Recording}

    The simulator's hot path records without boxing a float or hashing
    a variant: drop sites are interned to counters at setup, and
    completions read every float out of the flight's scratch array
    (layout below). *)

type counter
(** An interned per-site drop counter; its hits make up
    {!summary.drop_breakdown}. *)

val drop_counter : t -> drop_site -> counter
(** Intern a site (idempotent: same site, same counter). *)

val record_drop_counted : t -> born:float -> counter -> unit
(** A packet born at [born] lost at the counter's site. *)

(** {2 Read-only probes}

    Cumulative windowed accounts at call time, consumed by the live
    metrics layer ({!Metrics}). Reading them never changes results. *)

val offered : t -> int
val delivered : t -> int
val dropped : t -> int
val delivered_bytes : t -> float

val counters : t -> counter list
(** Every interned drop counter, in interning order. *)

val counter_site : counter -> drop_site
val counter_hits : counter -> int

(** Slot indices into the per-flight scratch array consumed by
    {!record_completion_fs} and {!Table} (and filled along the packet
    walk): the four Eq. 2 latency terms, then birth time, packet size,
    and completion time. [flight_slots] is the required array length. *)

val slot_queueing : int

val slot_service : int
val slot_wire : int
val slot_overhead : int
val slot_born : int
val slot_size : int
val slot_now : int
val flight_slots : int

val record_completion_fs : t -> fs:float array -> klass:int -> unit
(** A delivered packet of traffic class [klass] ([0..n-1], the index in
    the run's mix): birth, completion time, size and the four Eq. 2
    terms come from [fs], which must be {!flight_slots} long. *)

(** {2 Attribution table}

    One row per attributed entity — a tenant, a flow-cache class, a
    fault sub-interval — each holding offered / dropped / delivered
    counts, offered and delivered bytes, latency sum and max, the four
    Eq. 2 term sums, and a 64-bucket log₂ latency histogram. Records
    take the flight's {!flight_slots} array and follow the window rule
    above against the table's own cutoff. Rows are sized once at
    creation and recording allocates nothing, so thousands of rows add
    no per-packet words. *)
module Table : sig
  type t

  val create : rows:int -> cutoff:float -> t
  (** All-zero rows [0..rows-1]. *)

  val cutoff : t -> float

  val record_offered : t -> row:int -> float array -> unit
  (** Count the packet and its size ([slot_size]) as offered. *)

  val record_dropped : t -> row:int -> float array -> unit

  val record_delivered : t -> row:int -> float array -> unit
  (** Count the packet, its size, its latency ([slot_now] −
      [slot_born]) and its four Eq. 2 terms as delivered. *)

  val offered : t -> int -> int
  val dropped : t -> int -> int
  val delivered : t -> int -> int
  val offered_bytes : t -> int -> float
  val delivered_bytes : t -> int -> float

  val mean_latency : t -> int -> float
  (** 0 when the row delivered nothing (likewise {!mean_terms}). *)

  val max_latency : t -> int -> float
  val mean_terms : t -> int -> latency_terms

  val p99 : t -> int -> float
  (** Upper bound of the smallest histogram bucket whose cumulative
      count reaches ⌈0.99·delivered⌉, clamped to the row's maximum —
      good to a factor of 2; 0 when the row delivered nothing. Bucket
      [k] holds latencies in \[2{^k−40}, 2{^k−39}) seconds; latencies
      ≤ 0 land in bucket 0 and the index is clamped to \[0, 64). *)
end

type summary = {
  window : float;  (** measured seconds (horizon − warmup) *)
  offered_packets : int;
  delivered_packets : int;
  dropped_packets : int;
  delivered_bytes : float;
  throughput : float;  (** delivered bytes / window, bytes/s *)
  packet_rate : float;  (** delivered packets / window *)
  mean_latency : float;  (** seconds; 0 when nothing completed *)
  p50_latency : float;
  p99_latency : float;
  max_latency : float;
  loss_rate : float;  (** dropped / offered within the window *)
  per_class : (int * int * float) list;
      (** class, delivered packets, mean latency *)
  drop_breakdown : (drop_site * int) list;
      (** windowed drops per site, largest first; the counts sum to
          [dropped_packets] *)
  latency_terms : latency_terms;
      (** per-delivered-packet mean decomposition; the components sum
          to [mean_latency] (up to float rounding) *)
}

val summarize : t -> horizon:float -> summary

val terms_to_json : latency_terms -> Json.t

val to_json : summary -> Json.t
(** The full summary as a JSON object (consumed by
    [lognic report --trace]). *)
