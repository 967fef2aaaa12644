module G = Lognic.Graph
module D = Lognic.Degraded
module J = Telemetry.Json

type row = {
  r_start : float;
  r_stop : float;
  r_faults : string list;
  r_degraded : bool;
  model_throughput : float;
  sim_throughput : float;
  throughput_error : float;
  model_latency : float;
  sim_latency : float;
  latency_error : float;
  sim_offered : int;
  sim_delivered : int;
  sim_dropped : int;
  slo_ok : bool;
}

type report = {
  plan : Faults.plan;
  duration : float;
  rows : row list;
  model : D.report;
  measurement : Netsim.measurement;
  sim_degraded_throughput : float;
  sim_availability : float;
  resilience : Faults.resilience option;
  across_runs : Faults.resilience_replicated option;
}

(* Aggregate the run's fine sub-intervals into one model interval:
   the sub-interval grid refines the fault-plan boundaries, so each
   sub-interval lies entirely inside exactly one model interval. *)
let aggregate subs =
  let time, bytes, lat, offered, delivered, dropped =
    List.fold_left
      (fun (t, by, lat, o, de, dr) (s : Faults.interval_stats) ->
        let len = s.i_stop -. s.i_start in
        ( t +. len,
          by +. (s.i_throughput *. len),
          lat +. (s.i_latency *. float_of_int s.i_delivered),
          o + s.i_offered,
          de + s.i_delivered,
          dr + s.i_dropped ))
      (0., 0., 0., 0, 0, 0) subs
  in
  let throughput = if time > 0. then bytes /. time else 0. in
  let latency = if delivered > 0 then lat /. float_of_int delivered else 0. in
  (throughput, latency, offered, delivered, dropped)

let run ?config ?queue_model ?slo ?(runs = 1) ?jobs g ~hw ~traffic ~plan =
  let config = Option.value config ~default:Netsim.Config.default in
  let duration = config.Netsim.duration in
  let intervals = Faults.modifiers ~duration plan in
  let model = D.evaluate ?queue_model ?slo g ~hw ~traffic ~intervals in
  let spec = Netsim.Run.single ~config ~faults:plan g ~hw ~traffic in
  let m = Netsim.execute spec in
  let rows =
    List.map2
      (fun (ir : D.interval_report) (_, _, events) ->
        let subs =
          List.filter
            (fun (s : Faults.interval_stats) ->
              s.i_start >= ir.d_start && s.i_stop <= ir.d_stop)
            m.Netsim.fault_intervals
        in
        let sim_throughput, sim_latency, sim_offered, sim_delivered, sim_dropped
            =
          if subs = [] then
            (* empty plan: no sub-interval accounting ran; the single
               healthy interval is the whole run *)
            ( m.Netsim.summary.Telemetry.throughput,
              m.Netsim.summary.Telemetry.mean_latency,
              m.Netsim.summary.Telemetry.offered_packets,
              m.Netsim.summary.Telemetry.delivered_packets,
              m.Netsim.summary.Telemetry.dropped_packets )
          else aggregate subs
        in
        {
          r_start = ir.d_start;
          r_stop = ir.d_stop;
          r_faults =
            List.map
              (fun (ev : Faults.event) -> Faults.fault_label ev.fault)
              events;
          r_degraded = ir.degraded;
          model_throughput = ir.carried;
          sim_throughput;
          throughput_error =
            Explain.relative_error ~model:ir.carried ~sim:sim_throughput;
          model_latency = ir.latency;
          sim_latency;
          latency_error =
            (if Float.is_finite ir.latency then
               Explain.relative_error ~model:ir.latency ~sim:sim_latency
             else 1.);
          sim_offered;
          sim_delivered;
          sim_dropped;
          slo_ok = ir.slo_ok;
        })
      model.D.intervals
      (Faults.intervals ~duration plan)
  in
  let horizon =
    List.fold_left (fun acc r -> acc +. (r.r_stop -. r.r_start)) 0. rows
  in
  let sim_degraded_throughput =
    if horizon > 0. then
      List.fold_left
        (fun acc r -> acc +. (r.sim_throughput *. (r.r_stop -. r.r_start)))
        0. rows
      /. horizon
    else 0.
  in
  (* Sim-side availability mirrors the model's SLO figure: the fraction
     of the horizon whose simulated throughput holds ≥ the SLO fraction
     of the sim's own healthy baseline (the best interval's rate). *)
  let slo_v = Option.value slo ~default:D.default_slo in
  let sim_baseline =
    List.fold_left (fun acc r -> Float.max acc r.sim_throughput) 0. rows
  in
  let sim_availability =
    if horizon > 0. then
      List.fold_left
        (fun acc r ->
          if
            r.sim_throughput
            >= slo_v.D.min_throughput_fraction *. sim_baseline
          then acc +. (r.r_stop -. r.r_start)
          else acc)
        0. rows
      /. horizon
    else 1.
  in
  let across_runs =
    if runs >= 2 then
      (Parallel.execute_replicated ?jobs ~runs spec).Netsim.resilience
    else None
  in
  {
    plan;
    duration;
    rows;
    model;
    measurement = m;
    sim_degraded_throughput;
    sim_availability;
    resilience = m.Netsim.resilience;
    across_runs;
  }

let row_to_json r =
  J.Obj
    [
      ("start", J.Num r.r_start);
      ("stop", J.Num r.r_stop);
      ("faults", J.Arr (List.map (fun l -> J.Str l) r.r_faults));
      ("degraded", J.Bool r.r_degraded);
      ("model_throughput", J.Num r.model_throughput);
      ("sim_throughput", J.Num r.sim_throughput);
      ("throughput_error", J.Num r.throughput_error);
      ("model_latency", J.Num r.model_latency);
      ("sim_latency", J.Num r.sim_latency);
      ("latency_error", J.Num r.latency_error);
      ("offered", J.Num (float_of_int r.sim_offered));
      ("delivered", J.Num (float_of_int r.sim_delivered));
      ("dropped", J.Num (float_of_int r.sim_dropped));
      ("slo_ok", J.Bool r.slo_ok);
    ]

let to_json t =
  J.versioned ~kind:"faults"
    [
      ("plan", Faults.to_json t.plan);
      ("duration", J.Num t.duration);
      ( "model",
        J.Obj
          [
            ("nominal_throughput", J.Num t.model.D.nominal_throughput);
            ("nominal_latency", J.Num t.model.D.nominal_latency);
            ("degraded_throughput", J.Num t.model.D.degraded_throughput);
            ("degraded_latency", J.Num t.model.D.degraded_latency);
            ("availability", J.Num t.model.D.availability);
          ] );
      ( "sim",
        J.Obj
          [
            ("degraded_throughput", J.Num t.sim_degraded_throughput);
            ("availability", J.Num t.sim_availability);
          ] );
      ("intervals", J.Arr (List.map row_to_json t.rows));
      ( "resilience",
        match t.resilience with
        | None -> J.Null
        | Some r -> Faults.resilience_to_json r );
      ( "across_runs",
        match t.across_runs with
        | None -> J.Null
        | Some r -> Faults.resilience_replicated_to_json r );
    ]

let pp ppf t =
  let pct x = 100. *. x in
  Format.fprintf ppf "faults: model vs simulation under %a@\n" Faults.pp t.plan;
  Format.fprintf ppf
    "  degraded throughput  model %.4g B/s   sim %.4g B/s   (nominal %.4g)@\n"
    t.model.D.degraded_throughput t.sim_degraded_throughput
    t.model.D.nominal_throughput;
  Format.fprintf ppf "  availability         model %.1f%%   sim %.1f%%@\n"
    (pct t.model.D.availability)
    (pct t.sim_availability);
  (match t.resilience with
  | Some { Faults.recovery_time = Some rt; _ } ->
    Format.fprintf ppf "  recovery             %.4g s after last fault@\n" rt
  | Some { Faults.recovery_time = None; _ } ->
    Format.fprintf ppf "  recovery             not observed within the run@\n"
  | None -> ());
  (match t.across_runs with
  | Some r ->
    Format.fprintf ppf
      "  across runs          %d recovered (mean %.4g s, max %.4g s), worst \
       interval %.4g B/s@\n"
      r.Faults.recovered_runs r.Faults.recovery_mean r.Faults.recovery_max
      r.Faults.worst_throughput_min
  | None -> ());
  Format.fprintf ppf "  %-22s %-10s %12s %12s %7s %7s %5s@\n" "interval(s)"
    "state" "model-tput" "sim-tput" "t-err" "l-err" "slo";
  (* ranked like explain: most-degraded (largest throughput error)
     interval states first would hide chronology; keep chronological
     but flag the worst row *)
  let worst =
    List.fold_left
      (fun acc r ->
        match acc with
        | Some (w : row) when w.throughput_error >= r.throughput_error -> acc
        | _ -> Some r)
      None t.rows
  in
  List.iter
    (fun r ->
      Format.fprintf ppf "  [%8.4f, %8.4f) %-10s %12.4g %12.4g %6.1f%% %6.1f%% %5s%s@\n"
        r.r_start r.r_stop
        (if r.r_degraded then "faulted" else "healthy")
        r.model_throughput r.sim_throughput
        (pct r.throughput_error) (pct r.latency_error)
        (if r.slo_ok then "ok" else "VIOL")
        (match worst with
        | Some w when w == r && List.length t.rows > 1 -> "  <- worst join"
        | _ -> ""))
    t.rows
