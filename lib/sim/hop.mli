(** A packet's per-hop ledger: the one channel through which nodes,
    media and the walk report each hop's Eq. 2 terms and, for a packet
    the {!Trace} reservoir sampled, its spans.

    Every recorder adds its terms with [+.] into [fs] (the
    {!Telemetry.flight_slots} layout that {!Telemetry.latency_terms}
    sums), then, when [record] is [Some], records the hop's spans into
    it. With [record = None] a recorder is a few unboxed float-array
    stores: inlined at its call site it boxes no float. *)

type t = {
  fs : float array;  (** {!Telemetry.flight_slots} floats *)
  mutable record : Trace.record option;
      (** the packet's trace record while the reservoir holds it *)
}

val create : unit -> t
(** All-zero slots and no record. *)

val served :
  t -> entity:string -> lane:int -> now:float -> queued:float -> service:float -> unit
(** A node started serving the packet at [now] after [queued] seconds
    in its queue, for [service] seconds: adds to [slot_queueing] and
    [slot_service], then records a {!Trace.Queue} span starting at
    [now -. queued] and a {!Trace.Service} span starting at [now], both
    on engine [lane]. *)

val transferred :
  t -> entity:string -> now:float -> queued:float -> wire:float -> unit
(** A medium admitted the packet at [now]; it waits [queued] seconds
    for the wire, then crosses it in [wire]: adds to [slot_queueing] and
    [slot_wire], then records a {!Trace.Queue} span starting at [now]
    and a {!Trace.Wire} span starting at [now +. queued], on lane 0. *)

val overhead : t -> entity:string -> now:float -> duration:float -> unit
(** A vertex charged its fixed overhead from [now]: adds to
    [slot_overhead], then records one {!Trace.Overhead} span on lane 0. *)
