(* Timing, statistics, spans and JSON plumbing shared by the ledger's
   workloads and per-layer probes. *)

module Json = Lognic_sim.Telemetry.Json

(* Seconds on the monotonic clock, at nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Harness.median: no samples"
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The quartiles Python's [statistics.quantiles(xs, n=4)] returns (its
   default "exclusive" method), so spreads printed here match the ones
   a reader recomputes from the ledger. Needs two samples or more. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 2 then invalid_arg "Harness.quartiles: fewer than two samples";
  let m = n + 1 in
  Array.init 3 (fun k ->
      let i = k + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.)

(* Interquartile range as a share of the median; 0 for a single sample. *)
let spread xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
    let q = quartiles xs in
    (q.(2) -. q.(0)) /. Float.abs (median xs)

(* Seconds taken by each of at least [min_reps] calls of [f], calling
   on until [min_seconds] have passed (at most [max_reps] calls). *)
let time_samples ?(min_reps = 5) ?(min_seconds = 0.) ?(max_reps = 1000) f =
  let t0 = now () in
  let rec go n acc =
    if n >= max_reps || (n >= min_reps && now () -. t0 >= min_seconds) then
      List.rev acc
    else
      let (), dt = time f in
      go (n + 1) (dt :: acc)
  in
  go 0 []

let median_time ?min_reps ?min_seconds ?max_reps f =
  median (time_samples ?min_reps ?min_seconds ?max_reps f)

(* Peak resident set of this process in MiB, from the kernel's
   high-water mark; the GC's top heap size where /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %f kB"
              (fun kb -> Some (kb /. 1024.))
          | _ -> scan ()
          | exception End_of_file -> None
        in
        scan ())
  in
  match (try from_proc () with Sys_error _ -> None) with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* --- correctness checks --- *)

type checks = { mutable attempted : int; mutable failed : int }

let checks = { attempted = 0; failed = 0 }

let check name ok =
  checks.attempted <- checks.attempted + 1;
  if not ok then begin
    checks.failed <- checks.failed + 1;
    Printf.eprintf "check failed: %s\n%!" name
  end

let rec finite_json = function
  | Json.Num x -> Float.is_finite x
  | Json.Arr xs -> List.for_all finite_json xs
  | Json.Obj kvs -> List.for_all (fun (_, v) -> finite_json v) kvs
  | Json.Null | Json.Bool _ | Json.Str _ -> true

(* --- spans ---

   One span per call the ledger makes into a layer, kept in memory and
   written once, at exit, as Chrome trace-event JSON. Recording is off
   unless [spans_on] is set, so untraced runs pay one branch. *)

type span = {
  id : int;
  parent : int;  (** 0 at top level *)
  name : string;
  start : float;
  dur : float;
}

let spans_on = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack = ref []
let epoch = now ()

let fresh_id () =
  incr next_id;
  !next_id

let current () = match !stack with [] -> 0 | p :: _ -> p

let span name f =
  if not !spans_on then f ()
  else begin
    let id = fresh_id () and parent = current () in
    stack := id :: !stack;
    let t0 = now () in
    let finish () =
      let dur = now () -. t0 in
      stack := List.tl !stack;
      spans := { id; parent; name; start = t0 -. epoch; dur } :: !spans
    in
    Fun.protect ~finally:finish f
  end

(* A span timed elsewhere — by a worker domain, which must not touch
   the recorder — added under the current span. *)
let record_span name ~start ~dur =
  if !spans_on then
    spans := { id = fresh_id (); parent = current (); name; start = start -. epoch; dur } :: !spans

let spans_to_json ~pid =
  List.rev_map
       (fun s ->
         Json.Obj
           [
             ("name", Json.Str s.name);
             ("ph", Json.Str "X");
             ("ts", Json.Num (s.start *. 1e6));
             ("dur", Json.Num (s.dur *. 1e6));
             ("pid", Json.Num (float_of_int pid));
             ("tid", Json.Num 1.);
             ( "args",
               Json.Obj
                 [
                   ("id", Json.Num (float_of_int s.id));
                   ("parent", Json.Num (float_of_int s.parent));
                 ] );
           ])
    !spans

let chrome_trace events =
  Json.Obj [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ms") ]

(* --- files --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let read_json path =
  match Json.of_string (read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
