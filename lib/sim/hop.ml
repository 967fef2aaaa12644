type t = { fs : float array; mutable record : Trace.record option }

let create () = { fs = Array.make Telemetry.flight_slots 0.; record = None }

(* Each recorder adds its Eq. 2 terms first, then, for a sampled packet
   only, computes span starts: an unsampled packet boxes no float once
   the recorder is inlined into its caller. *)
let[@inline] served t ~entity ~lane ~now ~queued ~service =
  let fs = t.fs in
  fs.(Telemetry.slot_queueing) <- fs.(Telemetry.slot_queueing) +. queued;
  fs.(Telemetry.slot_service) <- fs.(Telemetry.slot_service) +. service;
  match t.record with
  | None -> ()
  | Some r ->
    Trace.add_span r ~entity ~lane ~phase:Trace.Queue ~start:(now -. queued)
      ~duration:queued;
    Trace.add_span r ~entity ~lane ~phase:Trace.Service ~start:now
      ~duration:service

let[@inline] transferred t ~entity ~now ~queued ~wire =
  let fs = t.fs in
  fs.(Telemetry.slot_queueing) <- fs.(Telemetry.slot_queueing) +. queued;
  fs.(Telemetry.slot_wire) <- fs.(Telemetry.slot_wire) +. wire;
  match t.record with
  | None -> ()
  | Some r ->
    Trace.add_span r ~entity ~lane:0 ~phase:Trace.Queue ~start:now
      ~duration:queued;
    Trace.add_span r ~entity ~lane:0 ~phase:Trace.Wire ~start:(now +. queued)
      ~duration:wire

let[@inline] overhead t ~entity ~now ~duration =
  let fs = t.fs in
  fs.(Telemetry.slot_overhead) <- fs.(Telemetry.slot_overhead) +. duration;
  match t.record with
  | None -> ()
  | Some r ->
    Trace.add_span r ~entity ~lane:0 ~phase:Trace.Overhead ~start:now ~duration
