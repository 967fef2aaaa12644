type fault = Lognic.Degraded.fault =
  | Engine_down of { vertex : string; engines : int }
  | Medium_degraded of { medium : string; factor : float }
  | Queue_shrunk of { vertex : string; capacity : int }
  | Drop_burst of { probability : float }

type event = { start : float; stop : float; fault : fault }
type plan = event list

let empty = []
let is_empty plan = plan = []

let check_window ~start ~stop =
  if not (Float.is_finite start && Float.is_finite stop) then
    invalid_arg "Faults: event window must be finite";
  if start < 0. then invalid_arg "Faults: event start must be >= 0";
  if stop <= start then invalid_arg "Faults: event stop must be > start"

let engine_down ~vertex ~engines ~start ~stop =
  check_window ~start ~stop;
  if engines < 1 then invalid_arg "Faults.engine_down: engines must be >= 1";
  { start; stop; fault = Engine_down { vertex; engines } }

let medium_degraded ~medium ~factor ~start ~stop =
  check_window ~start ~stop;
  if (not (Float.is_finite factor)) || factor <= 0. || factor > 1. then
    invalid_arg "Faults.medium_degraded: factor must be in (0, 1]";
  { start; stop; fault = Medium_degraded { medium; factor } }

let queue_shrunk ~vertex ~capacity ~start ~stop =
  check_window ~start ~stop;
  if capacity < 1 then invalid_arg "Faults.queue_shrunk: capacity must be >= 1";
  { start; stop; fault = Queue_shrunk { vertex; capacity } }

let drop_burst ~probability ~start ~stop =
  check_window ~start ~stop;
  if (not (Float.is_finite probability)) || probability < 0. || probability > 1.
  then invalid_arg "Faults.drop_burst: probability must be in [0, 1]";
  { start; stop; fault = Drop_burst { probability } }

let fault_label = function
  | Engine_down { vertex; _ } -> "engine_down:" ^ vertex
  | Medium_degraded { medium; _ } -> "degrade:" ^ medium
  | Queue_shrunk { vertex; _ } -> "queue_shrink:" ^ vertex
  | Drop_burst _ -> "drop_burst"

let event_to_json ev =
  let module J = Telemetry.Json in
  let param =
    match ev.fault with
    | Engine_down { engines; _ } -> ("engines", J.Num (float_of_int engines))
    | Medium_degraded { factor; _ } -> ("factor", J.Num factor)
    | Queue_shrunk { capacity; _ } -> ("capacity", J.Num (float_of_int capacity))
    | Drop_burst { probability } -> ("probability", J.Num probability)
  in
  J.Obj
    [
      ("fault", J.Str (fault_label ev.fault));
      ("start", J.Num ev.start);
      ("stop", J.Num ev.stop);
      param;
    ]

let to_json plan =
  Telemetry.Json.Arr (List.map event_to_json plan)

let intervals ~duration plan =
  if not (Float.is_finite duration && duration > 0.) then
    invalid_arg "Faults.intervals: duration must be positive and finite";
  let boundaries =
    List.concat_map
      (fun ev ->
        List.filter (fun t -> t > 0. && t < duration) [ ev.start; ev.stop ])
      plan
    |> List.sort_uniq Float.compare
  in
  let edges = (0. :: boundaries) @ [ duration ] in
  let rec pair = function
    | a :: (b :: _ as rest) ->
      (* an event covers the whole interval iff it covers its start
         (boundaries include every event edge, so partial overlap is
         impossible) *)
      let active =
        List.filter (fun ev -> ev.start <= a && ev.stop > a) plan
      in
      (a, b, active) :: pair rest
    | _ -> []
  in
  pair edges

let modifiers ~duration plan =
  List.map
    (fun (a, b, events) ->
      (a, b, Lognic.Degraded.compose (List.map (fun ev -> ev.fault) events)))
    (intervals ~duration plan)

let pp ppf plan =
  if is_empty plan then Fmt.pf ppf "no faults"
  else
    Fmt.pf ppf "@[<v>%a@]"
      (Fmt.list ~sep:Fmt.cut (fun ppf ev ->
           Fmt.pf ppf "[%g, %g) %s" ev.start ev.stop (fault_label ev.fault)))
      plan

(* ---- realization inside a simulation run ------------------------------ *)

type interval_stats = {
  i_start : float;
  i_stop : float;
  i_faults : string list;
  i_offered : int;
  i_delivered : int;
  i_dropped : int;
  i_throughput : float;
  i_latency : float;
}

type resilience = {
  recovery_time : float option;
  worst_throughput : float;
  worst_start : float;
}

type resilience_replicated = {
  recovered_runs : int;
  recovery_mean : float;
  recovery_max : float;
  worst_throughput_mean : float;
  worst_throughput_min : float;
}

type runtime = {
  rng : Lognic_numerics.Rng.t;
  duration : float;
  spans : (float * float * event list) list;
  boundaries : float array;
  bins : Telemetry.Table.t;  (* one row per sub-interval, cutoff 0 *)
  mutable burst_p : float;
}

(* Sub-interval grid for fault-time accounting: the fault-plan edges
   refined with a uniform duration/64 grid, so recovery after the last
   fault clears is observable at finer resolution than the plan's own
   boundaries. *)
let interval_boundaries ~duration spans =
  let grid = List.init 64 (fun i -> float_of_int i *. duration /. 64.) in
  let edges = List.map (fun (a, _, _) -> a) spans in
  Array.of_list (List.sort_uniq Float.compare (grid @ edges))

let realize plan engine ~rng ~nodes ~media ~duration =
  let spans = intervals ~duration plan in
  let boundaries = interval_boundaries ~duration spans in
  let rt =
    {
      rng;
      duration;
      spans;
      boundaries;
      bins = Telemetry.Table.create ~rows:(Array.length boundaries) ~cutoff:0.;
      burst_p = 0.;
    }
  in
  let node_of vertex =
    match List.find_opt (fun n -> Ip_node.label n = vertex) nodes with
    | Some node -> node
    | None ->
      invalid_arg
        (Printf.sprintf
           "Faults: fault targets unknown or infinite-throughput vertex %S" vertex)
  in
  let medium_of label =
    match List.find_opt (fun m -> Medium.label m = label) media with
    | Some m -> m
    | None ->
      invalid_arg (Printf.sprintf "Faults: fault targets unknown medium %S" label)
  in
  (* Validate every target up front so a bad plan fails before the
     simulation starts, not at the event's fire time. *)
  List.iter
    (fun ev ->
      match ev.fault with
      | Engine_down { vertex; _ } | Queue_shrunk { vertex; _ } ->
        ignore (node_of vertex)
      | Medium_degraded { medium; _ } -> ignore (medium_of medium)
      | Drop_burst _ -> ())
    plan;
  (* The sim realizes the spans the model evaluates: at each span
     start, every target the plan names takes that span's
     {!Lognic.Degraded.compose}d value, composed in plan order as
     {!modifiers} composes it. One setting per instant, so a fault that
     ends where another on the same target begins never lets the
     target recover in between. *)
  let enter events () =
    let m = Lognic.Degraded.compose (List.map (fun ev -> ev.fault) events) in
    List.iter
      (fun ev ->
        match ev.fault with
        | Engine_down { vertex; _ } ->
          let node = node_of vertex in
          Ip_node.set_offline node
            (min (Ip_node.engines node)
               (Option.value (List.assoc_opt vertex m.engines_down) ~default:0))
        | Medium_degraded { medium; _ } ->
          Medium.set_scale (medium_of medium)
            (Option.value (List.assoc_opt medium m.media_factors) ~default:1.)
        | Queue_shrunk { vertex; _ } ->
          Ip_node.set_capacity_override (node_of vertex)
            (List.assoc_opt vertex m.queue_caps)
        | Drop_burst _ -> rt.burst_p <- m.ingress_drop)
      plan
  in
  List.iter
    (fun (a, _, events) ->
      if a > 0. || events <> [] then Engine.schedule engine ~at:a (enter events))
    spans;
  rt

(* The draw comes from the fault rng, and only while a burst is active,
   so burst-free plans consume nothing from it. *)
let shed rt =
  rt.burst_p > 0. && Lognic_numerics.Rng.float rt.rng 1. < rt.burst_p

let[@inline] bin_of rt t =
  let b = rt.boundaries in
  let lo = ref 0 and hi = ref (Array.length b - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if b.(mid) <= t then lo := mid else hi := mid - 1
  done;
  !lo

(* A packet's row is the sub-interval of its birth. *)
let[@inline] row rt fs = bin_of rt fs.(Telemetry.slot_born)

let record_offered rt fs =
  Telemetry.Table.record_offered rt.bins ~row:(row rt fs) fs

let record_delivered rt fs =
  Telemetry.Table.record_delivered rt.bins ~row:(row rt fs) fs

let record_dropped rt fs =
  Telemetry.Table.record_dropped rt.bins ~row:(row rt fs) fs

let birth_bins rt =
  let module T = Telemetry.Table in
  Array.init (Array.length rt.boundaries) (fun i ->
      (T.offered rt.bins i, T.delivered rt.bins i + T.dropped rt.bins i))

let interval_stats rt =
  let module T = Telemetry.Table in
  let nbins = Array.length rt.boundaries in
  let labels_at t =
    match List.find_opt (fun (a, b, _) -> t >= a && t < b) rt.spans with
    | Some (_, _, events) -> List.map (fun ev -> fault_label ev.fault) events
    | None -> []
  in
  List.init nbins (fun i ->
      let a = rt.boundaries.(i) in
      let b = if i + 1 < nbins then rt.boundaries.(i + 1) else rt.duration in
      let len = b -. a in
      {
        i_start = a;
        i_stop = b;
        i_faults = labels_at a;
        i_offered = T.offered rt.bins i;
        i_delivered = T.delivered rt.bins i;
        i_dropped = T.dropped rt.bins i;
        i_throughput =
          (if len > 0. then T.delivered_bytes rt.bins i /. len else 0.);
        i_latency = T.mean_latency rt.bins i;
      })

let resilience ~duration rows =
  match List.filter (fun r -> r.i_faults <> []) rows with
  | [] -> None
  | first :: rest as faulted ->
    let first_fault_start =
      List.fold_left (fun acc r -> Float.min acc r.i_start) infinity faulted
    in
    let last_fault_end =
      List.fold_left (fun acc r -> Float.max acc r.i_stop) 0. faulted
    in
    let healthy = List.filter (fun r -> r.i_faults = []) rows in
    (* Baseline: time-weighted throughput over healthy intervals before
       the first fault; when the plan faults from t = 0, any healthy
       interval has to stand in. *)
    let baseline_over rows =
      let time, bytes =
        List.fold_left
          (fun (t, by) r ->
            let len = r.i_stop -. r.i_start in
            (t +. len, by +. (r.i_throughput *. len)))
          (0., 0.) rows
      in
      if time > 0. then Some (bytes /. time) else None
    in
    let baseline =
      match
        baseline_over (List.filter (fun r -> r.i_stop <= first_fault_start) healthy)
      with
      | Some b -> Some b
      | None -> baseline_over healthy
    in
    let recovery_time =
      match baseline with
      | None -> None
      | Some base ->
        if last_fault_end >= duration then None
        else
          List.find_opt
            (fun r -> r.i_start >= last_fault_end && r.i_throughput >= 0.9 *. base)
            rows
          |> Option.map (fun r -> r.i_start -. last_fault_end)
    in
    let worst =
      List.fold_left
        (fun acc r -> if r.i_throughput < acc.i_throughput then r else acc)
        first rest
    in
    Some
      {
        recovery_time;
        worst_throughput = worst.i_throughput;
        worst_start = worst.i_start;
      }

let summarize rt =
  let rows = interval_stats rt in
  (rows, resilience ~duration:rt.duration rows)

let resilience_across per_run =
  match List.filter_map Fun.id per_run with
  | [] -> None
  | per_run ->
    let recoveries = List.filter_map (fun r -> r.recovery_time) per_run in
    let worsts = List.map (fun r -> r.worst_throughput) per_run in
    let n = float_of_int (List.length recoveries) in
    Some
      {
        recovered_runs = List.length recoveries;
        recovery_mean =
          (if recoveries = [] then 0.
           else List.fold_left ( +. ) 0. recoveries /. n);
        recovery_max = List.fold_left Float.max 0. recoveries;
        worst_throughput_mean =
          List.fold_left ( +. ) 0. worsts /. float_of_int (List.length worsts);
        worst_throughput_min = List.fold_left Float.min infinity worsts;
      }

let interval_to_json r =
  let module J = Telemetry.Json in
  J.Obj
    [
      ("start", J.Num r.i_start);
      ("stop", J.Num r.i_stop);
      ("faults", J.Arr (List.map (fun l -> J.Str l) r.i_faults));
      ("offered", J.Num (float_of_int r.i_offered));
      ("delivered", J.Num (float_of_int r.i_delivered));
      ("dropped", J.Num (float_of_int r.i_dropped));
      ("throughput", J.Num r.i_throughput);
      ("latency", J.Num r.i_latency);
    ]

let resilience_to_json r =
  let module J = Telemetry.Json in
  J.Obj
    [
      ( "recovery_time",
        match r.recovery_time with None -> J.Null | Some t -> J.Num t );
      ("worst_throughput", J.Num r.worst_throughput);
      ("worst_start", J.Num r.worst_start);
    ]

let resilience_replicated_to_json r =
  let module J = Telemetry.Json in
  J.Obj
    [
      ("recovered_runs", J.Num (float_of_int r.recovered_runs));
      ("recovery_mean", J.Num r.recovery_mean);
      ("recovery_max", J.Num r.recovery_max);
      ("worst_throughput_mean", J.Num r.worst_throughput_mean);
      ("worst_throughput_min", J.Num r.worst_throughput_min);
    ]
