module G = Lognic.Graph
module D = Lognic.Degraded
module J = Telemetry.Json

type row = {
  r_start : float;
  r_stop : float;
  r_faults : string list;
  r_degraded : bool;
  throughput : Explain.pair;
  latency : Explain.pair;
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

let run ?config ?queue_model ?(runs = 1) ?jobs g ~hw ~traffic ~plan =
  let config = Option.value config ~default:Netsim.Config.default in
  let duration = config.Netsim.duration in
  let intervals = Faults.modifiers ~duration plan in
  let model = D.evaluate ?queue_model g ~hw ~traffic ~intervals in
  let spec = Netsim.Run.single ~config ~faults:plan g ~hw ~traffic in
  (* The joined run is replication 0, so [--runs N] simulates N runs. *)
  let m, across_runs =
    if runs >= 2 then
      let ms = Netsim.replications ?jobs ~runs spec in
      ( List.hd ms,
        Faults.resilience_across
          (List.map (fun (m : Netsim.measurement) -> m.resilience) ms) )
    else (Netsim.execute spec, None)
  in
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
          throughput = Explain.pair ~model:ir.carried ~sim:(Some sim_throughput);
          latency =
            Explain.pair ~model:ir.latency
              ~sim:(Explain.if_delivered sim_delivered sim_latency);
          sim_offered;
          sim_delivered;
          sim_dropped;
          slo_ok = ir.slo_ok;
        })
      model.D.intervals
      (Faults.intervals ~duration plan)
  in
  let sim_throughput r = Option.get r.throughput.Explain.sim in
  let horizon =
    List.fold_left (fun acc r -> acc +. (r.r_stop -. r.r_start)) 0. rows
  in
  let sim_degraded_throughput =
    if horizon > 0. then
      List.fold_left
        (fun acc r -> acc +. (sim_throughput r *. (r.r_stop -. r.r_start)))
        0. rows
      /. horizon
    else 0.
  in
  (* Sim-side availability mirrors the model's SLO figure: the fraction
     of the horizon whose simulated throughput holds ≥ the SLO fraction
     of the sim's own healthy baseline (the best interval's rate). *)
  let sim_baseline =
    List.fold_left (fun acc r -> Float.max acc (sim_throughput r)) 0. rows
  in
  let sim_availability =
    if horizon > 0. then
      List.fold_left
        (fun acc r ->
          if sim_throughput r >= D.slo_throughput_fraction *. sim_baseline
          then acc +. (r.r_stop -. r.r_start)
          else acc)
        0. rows
      /. horizon
    else 1.
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
    ([
       ("start", J.Num r.r_start);
       ("stop", J.Num r.r_stop);
       ("faults", J.Arr (List.map (fun l -> J.Str l) r.r_faults));
       ("degraded", J.Bool r.r_degraded);
     ]
    @ Explain.pair_fields "throughput" r.throughput
    @ Explain.pair_fields "latency" r.latency
    @ [
        ("offered", J.Num (float_of_int r.sim_offered));
        ("delivered", J.Num (float_of_int r.sim_delivered));
        ("dropped", J.Num (float_of_int r.sim_dropped));
        ("slo_ok", J.Bool r.slo_ok);
      ])

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
        | Some (w : row) when w.throughput.error >= r.throughput.error -> acc
        | _ -> Some r)
      None t.rows
  in
  List.iter
    (fun r ->
      Format.fprintf ppf "  [%8.4f, %8.4f) %-10s %12.4g %12s %7s %7s %5s%s@\n"
        r.r_start r.r_stop
        (if r.r_degraded then "faulted" else "healthy")
        r.throughput.model
        (Explain.cell "%.4g" r.throughput.sim)
        (Explain.error_cell "%.1f%%" r.throughput)
        (Explain.error_cell "%.1f%%" r.latency)
        (if r.slo_ok then "ok" else "VIOL")
        (match worst with
        | Some w when w == r && List.length t.rows > 1 -> "  <- worst join"
        | _ -> ""))
    t.rows
