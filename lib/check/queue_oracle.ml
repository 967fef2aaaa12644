(* The obviously correct event queue that the differential property
   checks [Lognic_sim.Event_queue] against: an immutable map keyed by
   (time, seq), whose minimum binding is the next event. *)

module Key = struct
  type t = float * int

  let compare (t1, s1) (t2, s2) =
    match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
end

module M = Map.Make (Key)

type 'a t = { events : 'a M.t; next_seq : int }

let empty = { events = M.empty; next_seq = 0 }
let size q = M.cardinal q.events

let push q ~time payload =
  { events = M.add (time, q.next_seq) payload q.events; next_seq = q.next_seq + 1 }

(* The earliest event, when its time is [<= horizon]. *)
let first q ~horizon =
  match M.min_binding_opt q.events with
  | Some ((time, _), payload) when time <= horizon -> Some (time, payload)
  | _ -> None

let remove_first q = { q with events = M.remove (fst (M.min_binding q.events)) q.events }
