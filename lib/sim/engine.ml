(* The clock lives in a 1-slot float array rather than a mutable float
   field: without flambda a mutable float field of a mixed record is
   boxed on every store, and the clock is written once per event.
   [schedule]/[schedule_after] are inlinable wrappers feeding the
   queue's scratch cell, so the hot path never boxes a time. *)

type t = {
  queue : (unit -> unit) Event_queue.t;
  clock : float array;
  mutable executed : int;
}

let create () =
  { queue = Event_queue.create (); clock = Array.make 1 0.; executed = 0 }

let[@inline] now t = t.clock.(0)

let past_error () = invalid_arg "Engine.schedule: event in the past"
let delay_error () = invalid_arg "Engine.schedule_after: negative delay"

let[@inline] schedule t ~at thunk =
  if at < t.clock.(0) then past_error ();
  Event_queue.push t.queue ~time:at thunk

let[@inline] schedule_after t ~delay thunk =
  if delay < 0. then delay_error ();
  schedule t ~at:(t.clock.(0) +. delay) thunk

(* Tick times are computed multiplicatively ([i * interval]) so
   accumulated rounding never drops the final tick before [until]. *)
let every t ~interval ~until f =
  let time_of i = float_of_int i *. interval in
  let rec tick i =
    f (time_of i);
    if time_of (i + 1) <= until then
      schedule t ~at:(time_of (i + 1)) (fun () -> tick (i + 1))
  in
  if interval <= until then schedule t ~at:interval (fun () -> tick 1)
  else schedule t ~at:until (fun () -> f until)

let run ?until ?observer ?profile t =
  let horizon = Option.value until ~default:infinity in
  let q = t.queue in
  (* Two loops so the no-observer, no-profile path (the default) stays
     the exact hot loop: no per-event option match, no closure call —
     and via locate/take, no per-event allocation at all. The
     instrumented loop advances the clock, then calls the observer (if
     any), which reads the event's time as [now t]; when profiling, it
     brackets queue operations and observer callbacks with {!Profile}
     phases. Event thunks execute in whatever phase was current
     ([phase_other] unless the thunk switches itself). *)
  (match (observer, profile) with
  | None, None ->
    let rec loop () =
      if Event_queue.locate q ~horizon then begin
        t.clock.(0) <- Event_queue.located_time q;
        t.executed <- t.executed + 1;
        let thunk = Event_queue.take q in
        thunk ();
        loop ()
      end
    in
    loop ()
  | _ ->
    let[@inline] enter phase =
      match profile with Some p -> Profile.enter p phase | None -> phase
    in
    let[@inline] leave prev =
      match profile with Some p -> Profile.leave p prev | None -> ()
    in
    let rec loop () =
      let prev = enter Profile.phase_queue in
      if Event_queue.locate q ~horizon then begin
        t.clock.(0) <- Event_queue.located_time q;
        (match observer with
        | Some observe ->
          let pq = enter Profile.phase_observer in
          observe ();
          leave pq
        | None -> ());
        t.executed <- t.executed + 1;
        let thunk = Event_queue.take q in
        leave prev;
        thunk ();
        loop ()
      end
      else leave prev
    in
    loop ());
  if horizon < infinity && t.clock.(0) < horizon then t.clock.(0) <- horizon

let executed t = t.executed
let queue_resizes t = Event_queue.resizes t.queue

let reset t =
  Event_queue.clear t.queue;
  t.clock.(0) <- 0.;
  t.executed <- 0
