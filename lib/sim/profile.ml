(* Wall-clock self-profiler for the simulation engine.

   The engine and the entities it drives bracket their work with
   {!enter}/{!leave} around a small fixed set of phases.  Accounting is
   *self time*: entering a nested phase stops the parent's clock, so
   each wall-clock second lands in exactly one phase and the phase
   totals sum to the profiled span.  A switch is two [Unix.gettimeofday]
   calls worth of float arithmetic on preallocated arrays — no
   allocation per event — and the instance is threaded as an [option]
   so the disabled path stays a single pointer compare.

   Wall-clock and GC numbers are inherently nondeterministic, which is
   why they live here and never inside the deterministic metrics NDJSON
   stream: {!Metrics} exports them as a separate [schema:"profile"]
   document. *)

module J = Telemetry.Json

let phase_queue = 0
let phase_node = 1
let phase_media = 2
let phase_observer = 3
let phase_other = 4
let phase_count = 5

(* Stable display/export name per phase index. *)
let phase_names =
  [| "queue_ops"; "node_service"; "media_arbitration"; "observer"; "other" |]

type row = {
  r_time : float;
  r_wall : float;
  r_phases : float array;
  r_enters : int array;
  r_minor_words : float;
  r_promoted_words : float;
  r_major_words : float;
  r_collections : int;
}

type t = {
  acc : float array;  (* cumulative self seconds per phase *)
  enters : int array;  (* cumulative enter count per phase *)
  mutable current : int;  (* phase whose clock is running *)
  mutable last : float;  (* wall time of the last phase switch *)
  started : float;  (* wall time at [create] *)
  (* Baselines for interval deltas, updated by [tick]. *)
  prev_acc : float array;
  prev_enters : int array;
  mutable prev_wall : float;
  mutable prev_minor : float;
  mutable prev_promoted : float;
  mutable prev_major : float;
  mutable prev_collections : int;
  mutable rows : row list;  (* newest first *)
}

let gc_collections (s : Gc.stat) =
  s.Gc.minor_collections + s.Gc.major_collections

let create () =
  let wall = Unix.gettimeofday () in
  let stat = Gc.quick_stat () in
  {
    acc = Array.make phase_count 0.;
    enters = Array.make phase_count 0;
    current = phase_other;
    last = wall;
    started = wall;
    prev_acc = Array.make phase_count 0.;
    prev_enters = Array.make phase_count 0;
    prev_wall = wall;
    prev_minor = stat.Gc.minor_words;
    prev_promoted = stat.Gc.promoted_words;
    prev_major = stat.Gc.major_words;
    prev_collections = gc_collections stat;
    rows = [];
  }

(* Charge the span since the last switch to the running phase. *)
let[@inline] settle t =
  let wall = Unix.gettimeofday () in
  t.acc.(t.current) <- t.acc.(t.current) +. (wall -. t.last);
  t.last <- wall

let[@inline] enter t phase =
  let prev = t.current in
  settle t;
  t.current <- phase;
  t.enters.(phase) <- t.enters.(phase) + 1;
  prev

let[@inline] leave t prev =
  settle t;
  t.current <- prev

let tick t ~time =
  settle t;
  let stat = Gc.quick_stat () in
  let wall = t.last in
  let collections = gc_collections stat in
  let row =
    {
      r_time = time;
      r_wall = wall -. t.prev_wall;
      r_phases = Array.init phase_count (fun i -> t.acc.(i) -. t.prev_acc.(i));
      r_enters =
        Array.init phase_count (fun i -> t.enters.(i) - t.prev_enters.(i));
      r_minor_words = stat.Gc.minor_words -. t.prev_minor;
      r_promoted_words = stat.Gc.promoted_words -. t.prev_promoted;
      r_major_words = stat.Gc.major_words -. t.prev_major;
      r_collections = collections - t.prev_collections;
    }
  in
  Array.blit t.acc 0 t.prev_acc 0 phase_count;
  Array.blit t.enters 0 t.prev_enters 0 phase_count;
  t.prev_wall <- wall;
  t.prev_minor <- stat.Gc.minor_words;
  t.prev_promoted <- stat.Gc.promoted_words;
  t.prev_major <- stat.Gc.major_words;
  t.prev_collections <- collections;
  t.rows <- row :: t.rows;
  row

let self_seconds t phase = t.acc.(phase)
let enter_count t phase = t.enters.(phase)
(* Wall seconds since {!create}. *)
let elapsed t = Unix.gettimeofday () -. t.started

let phases_obj values =
  J.Obj
    (Array.to_list (Array.mapi (fun i name -> (name, values i)) phase_names))

let row_to_json r =
  J.Obj
    [
      ("time", J.Num r.r_time);
      ("wall_seconds", J.Num r.r_wall);
      ("phases", phases_obj (fun i -> J.Num r.r_phases.(i)));
      ("enters", phases_obj (fun i -> J.Num (float_of_int r.r_enters.(i))));
      ( "gc",
        J.Obj
          [
            ("minor_words", J.Num r.r_minor_words);
            ("promoted_words", J.Num r.r_promoted_words);
            ("major_words", J.Num r.r_major_words);
            ("collections", J.Num (float_of_int r.r_collections));
          ] );
    ]

let to_json t =
  J.versioned ~kind:"profile"
    [
      ("wall_seconds", J.Num (elapsed t));
      ("totals", phases_obj (fun i -> J.Num t.acc.(i)));
      ( "total_enters",
        phases_obj (fun i -> J.Num (float_of_int t.enters.(i))) );
      ("intervals", J.Arr (List.rev_map row_to_json t.rows |> List.rev));
    ]

let pp ppf t =
  Fmt.pf ppf "@[<v>profile (%.3fs wall):@," (elapsed t);
  Array.iteri
    (fun i name ->
      Fmt.pf ppf "  %-18s %8.4fs  (%d enters)@," name t.acc.(i) t.enters.(i))
    phase_names;
  Fmt.pf ppf "@]"
