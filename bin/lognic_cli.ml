(* The lognic command-line tool: estimate / simulate / optimize /
   validate execution graphs written in the DSL, print the paper's
   parameter table, and regenerate evaluation figures. *)

open Cmdliner

let default_hardware =
  (* A generous SoC so graphs without a hardware statement still run. *)
  Lognic.Params.hardware
    ~bw_interface:(100. *. Lognic.Units.gbps)
    ~bw_memory:(100. *. Lognic.Units.gbps)

let load_document path =
  match Lognic_dsl.Parser.parse_file path with
  | Ok doc -> Ok doc
  | Error e -> Error (`Msg (Printf.sprintf "%s: %s" path e))

(* Command-line values override the graph's traffic line field by
   field; the result always goes through [Traffic.make], which rejects
   non-finite and non-positive values. *)
let resolve_traffic (doc : Lognic_dsl.Parser.document) rate packet =
  let or_doc given field =
    match given with Some _ -> given | None -> Option.map field doc.traffic
  in
  match
    ( or_doc rate (fun t -> t.Lognic.Traffic.rate),
      or_doc packet (fun t -> t.Lognic.Traffic.packet_size) )
  with
  | Some rate, Some packet_size -> Ok (Lognic.Traffic.make ~rate ~packet_size)
  | _ ->
    Error
      (`Msg
         "no traffic profile: add a 'traffic' line to the graph or pass --rate \
          and --packet")

let hardware_of doc = Option.value doc.Lognic_dsl.Parser.hardware ~default:default_hardware

(* Common arguments *)

let graph_arg =
  let doc = "Execution graph in the LogNIC DSL format." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc)

let quantity_conv =
  let parse s =
    match Lognic_dsl.Quantity.parse s with
    | Ok v -> Ok v
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf v -> Fmt.pf ppf "%g" v)

let rate_arg =
  let doc = "Offered load (accepts unit suffixes, e.g. 25Gbps)." in
  Arg.(value & opt (some quantity_conv) None & info [ "rate" ] ~docv:"RATE" ~doc)

let packet_arg =
  let doc = "Packet size (e.g. 1500B, 4KiB)." in
  Arg.(value & opt (some quantity_conv) None & info [ "packet" ] ~docv:"SIZE" ~doc)

let queue_model_arg =
  let doc = "Queueing model: mm1n (paper Eq 12), mmcn, mm1, none." in
  let model_conv =
    Arg.enum
      [
        ("mm1n", Lognic.Latency.Mm1n_model);
        ("mmcn", Lognic.Latency.Mmcn_model);
        ("mm1", Lognic.Latency.Mm1_model);
        ("none", Lognic.Latency.No_queueing);
      ]
  in
  Arg.(value & opt model_conv Lognic.Latency.Mm1n_model & info [ "queue-model" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for parallel sweeps and searches (default: the \
     machine's core count). Results are identical at any job count."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let apply_jobs jobs = Option.iter Lognic_numerics.Parallel.set_default_jobs jobs

(* Colon-spec flags all parse through the shared grammar engine, with
   the DSL's quantity parser plugged in for unit-suffixed fields. *)

module Spec = Lognic_sim.Spec

let parse_specs grammar specs =
  Result.map_error
    (fun e -> `Msg e)
    (Spec.parse_all ~quantity:Lognic_dsl.Quantity.parse grammar specs)


(* estimate *)

let tail_arg =
  let doc = "Also estimate latency percentiles (p50/p90/p99)." in
  Arg.(value & flag & info [ "tail" ] ~doc)

let estimate_cmd =
  let run graph_path rate packet queue_model tail =
    let ( let* ) = Result.bind in
    let* doc = load_document graph_path in
    let* traffic = resolve_traffic doc rate packet in
    let report =
      Lognic.Estimate.run ~queue_model doc.graph ~hw:(hardware_of doc) ~traffic
    in
    Fmt.pr "%a@." (Lognic.Estimate.pp_report doc.graph) report;
    if tail then begin
      let r =
        Lognic.Tail.evaluate ~model:queue_model doc.graph ~hw:(hardware_of doc)
          ~traffic
      in
      let q = Lognic.Tail.overall r in
      Fmt.pr "tail: p50 %.2f us, p90 %.2f us, p99 %.2f us@."
        (Lognic.Units.to_usec q.p50) (Lognic.Units.to_usec q.p90)
        (Lognic.Units.to_usec q.p99)
    end;
    Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ graph_arg $ rate_arg $ packet_arg $ queue_model_arg
       $ tail_arg))
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Estimate throughput and latency of an execution graph (model mode).")
    term

(* sweep *)

let sweep_cmd =
  let points_arg =
    let doc = "Number of load points." in
    Arg.(value & opt int 12 & info [ "points" ] ~doc)
  in
  let max_rate_arg =
    let doc = "Highest offered load (default: the graph's capacity)." in
    Arg.(
      value & opt (some quantity_conv) None & info [ "max-rate" ] ~docv:"RATE" ~doc)
  in
  let run graph_path packet queue_model points max_rate =
    let ( let* ) = Result.bind in
    let* doc = load_document graph_path in
    let* traffic = resolve_traffic doc None packet in
    let hw = hardware_of doc in
    let max_rate =
      match max_rate with
      | Some r -> r
      | None -> Lognic.Throughput.capacity doc.graph ~hw
    in
    let* () =
      if Float.is_finite max_rate then Ok ()
      else Error (`Msg "graph has unbounded capacity: pass --max-rate")
    in
    Fmt.pr "offered(Gbps)  attained(Gbps)  latency(us)@.";
    List.iter
      (fun (offered, attained, latency) ->
        Fmt.pr "%10.3f  %12.3f  %10.2f@."
          (Lognic.Units.to_gbps offered)
          (Lognic.Units.to_gbps attained)
          (Lognic.Units.to_usec latency))
      (Lognic.Estimate.saturation_sweep ~points ~queue_model doc.graph ~hw
         ~packet_size:traffic.Lognic.Traffic.packet_size ~max_rate);
    Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ graph_arg $ packet_arg $ queue_model_arg $ points_arg
       $ max_rate_arg))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep the offered load to saturation and print the \
          latency-throughput curve.")
    term

(* simulate *)

let duration_arg =
  let doc = "Simulated seconds." in
  Arg.(value & opt float 0.1 & info [ "duration" ] ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let simulate_cmd =
  let run graph_path rate packet duration seed =
    let ( let* ) = Result.bind in
    let* doc = load_document graph_path in
    let config =
      Lognic_sim.Netsim.Config.(
        default |> with_horizon duration |> with_seed seed)
    in
    (* a graph carrying `class` lines simulates the whole mix unless the
       command line pins a single class *)
    let* mix =
      match (doc.mix, rate, packet) with
      | Some mix, None, None -> Ok mix
      | _ ->
        let* traffic = resolve_traffic doc rate packet in
        Ok [ (traffic, 1.) ]
    in
    let m = Lognic_sim.Netsim.run ~config doc.graph ~hw:(hardware_of doc) ~mix in
    let s = m.summary in
    Fmt.pr "throughput: %.3f Gbps (%d packets delivered, %d dropped)@."
      (Lognic.Units.to_gbps s.Lognic_sim.Telemetry.throughput)
      s.delivered_packets s.dropped_packets;
    Fmt.pr "latency: mean %.2f us, p50 %.2f us, p99 %.2f us@."
      (Lognic.Units.to_usec s.mean_latency)
      (Lognic.Units.to_usec s.p50_latency)
      (Lognic.Units.to_usec s.p99_latency);
    List.iter
      (fun (v : Lognic_sim.Netsim.vertex_stats) ->
        Fmt.pr "vertex %d (%s): utilization %.2f, drops %d@." v.vid v.vlabel
          v.utilization v.drops)
      m.vertex_stats;
    Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ graph_arg $ rate_arg $ packet_arg $ duration_arg $ seed_arg))
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run the packet-level simulator on an execution graph.")
    term

(* check *)

let check_cmd =
  let graphs_arg =
    let doc =
      "DSL graph files to replay under the runtime invariant checkers. \
       When omitted, only the property-based fuzz suite runs."
    in
    Arg.(value & pos_all file [] & info [] ~docv:"GRAPH" ~doc)
  in
  let scale_arg =
    let doc = "Multiply every fuzz property's iteration count by $(docv)." in
    Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"FACTOR" ~doc)
  in
  let check_seed_arg =
    let doc = "Random seed for the fuzz suite and graph replays." in
    Arg.(value & opt int 42 & info [ "seed" ] ~doc)
  in
  let check_duration_arg =
    let doc = "Simulated seconds per graph replay." in
    Arg.(value & opt float 0.01 & info [ "duration" ] ~doc)
  in
  let json_arg =
    let doc = "Write the full check report as versioned JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)
  in
  let check_graph ~seed ~duration path =
    let ( let* ) = Result.bind in
    let* doc = load_document path in
    let* mix =
      match doc.mix with
      | Some mix -> Ok mix
      | None ->
        let* traffic = resolve_traffic doc None None in
        Ok [ (traffic, 1.) ]
    in
    let config =
      Lognic_sim.Netsim.Config.(
        default |> with_horizon duration |> with_seed seed
        |> with_invariants true)
    in
    let m = Lognic_sim.Netsim.run ~config doc.graph ~hw:(hardware_of doc) ~mix in
    match m.invariants with
    | None ->
      Error (`Msg "internal error: check_invariants was set but no report came back")
    | Some report -> Ok (path, report)
  in
  let run graphs scale seed duration json_path =
    let ( let* ) = Result.bind in
    let module Inv = Lognic_sim.Invariants in
    let* graph_reports =
      List.fold_left
        (fun acc path ->
          let* acc = acc in
          let* r = check_graph ~seed ~duration path in
          Ok (r :: acc))
        (Ok []) graphs
    in
    let graph_reports = List.rev graph_reports in
    List.iter
      (fun (path, (r : Inv.report)) ->
        Fmt.pr "graph %s: %d checks, %d violations@." path r.checks
          r.total_violations;
        List.iter (fun v -> Fmt.pr "  %a@." Inv.pp_violation v) r.violations)
      graph_reports;
    let outcomes =
      Lognic_check.Runner.run ~seed (Lognic_check.Props.suite ~scale ())
    in
    List.iter
      (fun o -> Fmt.pr "@[<v>%a@]@." Lognic_check.Runner.pp_outcome o)
      outcomes;
    let graphs_ok =
      List.for_all (fun (_, r) -> Inv.ok r) graph_reports
    in
    let props_ok = Lognic_check.Runner.all_passed outcomes in
    let passed = graphs_ok && props_ok in
    (match json_path with
    | None -> ()
    | Some path ->
      let module J = Lognic_sim.Telemetry.Json in
      let json =
        J.versioned ~kind:"check"
          [
            ("seed", J.Num (float_of_int seed));
            ("scale", J.Num scale);
            ( "graphs",
              J.Arr
                (List.map
                   (fun (p, r) ->
                     J.Obj
                       [
                         ("path", J.Str p);
                         ("invariants", Inv.report_to_json r);
                       ])
                   graph_reports) );
            ( "properties",
              J.Arr (List.map Lognic_check.Runner.outcome_to_json outcomes) );
            ("passed", J.Bool passed);
          ]
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Lognic_sim.Telemetry.Json.to_string json);
          output_char oc '\n'));
    if passed then begin
      Fmt.pr "check: all %d properties and %d graph replays passed@."
        (List.length outcomes)
        (List.length graph_reports);
      Ok ()
    end
    else Error (`Msg "check: invariant violations or property failures (see above)")
  in
  let term =
    Term.(
      term_result
        (const run $ graphs_arg $ scale_arg $ check_seed_arg
       $ check_duration_arg $ json_arg))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the property-based fuzz suite and replay graphs under the \
          runtime invariant checkers.")
    term

(* report *)

let write_json path json =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Lognic_sim.Telemetry.Json.to_string json);
      output_char oc '\n')

let report_cmd =
  let trace_arg =
    let doc = "Write the full measurement (summary, per-entity stats, drop \
               sites, sampled series) as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc)
  in
  let trace_events_arg =
    let doc = "Record per-packet lifecycle spans for a reservoir-sampled \
               subset of packets and write them as Chrome trace-event JSON \
               to $(docv) (loadable in Perfetto or chrome://tracing). \
               Tracing never changes the measured results." in
    Arg.(value & opt (some string) None & info [ "trace-events" ] ~docv:"PATH" ~doc)
  in
  let reservoir_arg =
    let doc = "Packets held by the trace reservoir (with --trace-events)." in
    Arg.(value & opt int 64 & info [ "reservoir" ] ~docv:"N" ~doc)
  in
  let csv_arg =
    let doc = "Write the sampled time series as CSV files $(docv).SERIES.csv." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"PREFIX" ~doc)
  in
  let interval_arg =
    let doc = "Sampling interval in simulated seconds (default: duration/200)." in
    Arg.(value & opt (some float) None & info [ "sample-interval" ] ~docv:"SECONDS" ~doc)
  in
  let run graph_path rate packet duration seed interval trace trace_events
      reservoir csv =
    let ( let* ) = Result.bind in
    let* doc = load_document graph_path in
    let dt =
      match interval with Some dt -> dt | None -> duration /. 200.
    in
    let* () =
      if reservoir < 1 then Error (`Msg "--reservoir must be >= 1") else Ok ()
    in
    let config =
      let open Lognic_sim.Netsim.Config in
      let base =
        default |> with_horizon duration |> with_seed seed |> with_sampling dt
      in
      match trace_events with
      | Some _ -> with_trace { Lognic_sim.Trace.reservoir } base
      | None -> base
    in
    let* mix =
      match (doc.mix, rate, packet) with
      | Some mix, None, None -> Ok mix
      | _ ->
        let* traffic = resolve_traffic doc rate packet in
        Ok [ (traffic, 1.) ]
    in
    let m = Lognic_sim.Netsim.run ~config doc.graph ~hw:(hardware_of doc) ~mix in
    let s = m.summary in
    let module Tel = Lognic_sim.Telemetry in
    Fmt.pr "throughput: %.3f Gbps (%d delivered, %d dropped, loss %.2f%%)@."
      (Lognic.Units.to_gbps s.Tel.throughput)
      s.delivered_packets s.dropped_packets (100. *. s.loss_rate);
    let terms = s.latency_terms in
    Fmt.pr
      "latency: mean %.2f us = queueing %.2f + service %.2f + wire %.2f + \
       overhead %.2f@."
      (Lognic.Units.to_usec s.mean_latency)
      (Lognic.Units.to_usec terms.Tel.queueing)
      (Lognic.Units.to_usec terms.Tel.service)
      (Lognic.Units.to_usec terms.Tel.wire)
      (Lognic.Units.to_usec terms.Tel.overhead);
    List.iter
      (fun (v : Lognic_sim.Netsim.vertex_stats) ->
        Fmt.pr "node %-16s utilization %5.2f, completions %8d, drops %d@."
          v.vlabel v.utilization v.completions v.drops)
      m.vertex_stats;
    List.iter
      (fun (md : Lognic_sim.Netsim.medium_stats) ->
        Fmt.pr "medium %-14s utilization %5.2f, rejections %d@." md.mlabel
          md.m_utilization md.m_rejections)
      m.medium_stats;
    if m.drop_breakdown <> [] then begin
      Fmt.pr "drops by site:@.";
      List.iter
        (fun (site, n) -> Fmt.pr "  %-24s %d@." (Tel.drop_site_name site) n)
        m.drop_breakdown
    end;
    Option.iter
      (fun path ->
        write_json path (Lognic_sim.Netsim.measurement_to_json m);
        Fmt.pr "trace written to %s@." path)
      trace;
    Option.iter
      (fun path ->
        match m.trace with
        | Some t ->
          write_json path (Lognic_sim.Trace.to_chrome_json t);
          Fmt.pr "trace events (%d of %d packets) written to %s@."
            (List.length (Lognic_sim.Trace.records t))
            (Lognic_sim.Trace.seen t) path
        | None -> ())
      trace_events;
    Option.iter
      (fun prefix ->
        List.iter
          (fun series ->
            let path =
              Printf.sprintf "%s.%s.csv" prefix (Tel.Series.label series)
            in
            Out_channel.with_open_text path (fun oc ->
                output_string oc (Tel.Series.to_csv series)))
          m.series;
        Fmt.pr "%d series written to %s.*.csv@." (List.length m.series) prefix)
      csv;
    Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ graph_arg $ rate_arg $ packet_arg $ duration_arg
       $ seed_arg $ interval_arg $ trace_arg $ trace_events_arg
       $ reservoir_arg $ csv_arg))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Simulate with full observability: per-entity utilization and drop \
          attribution, latency decomposition, sampled queue-depth traces, \
          per-packet lifecycle tracing (Perfetto-loadable), and structured \
          JSON/CSV export.")
    term

(* watch *)

let watch_cmd =
  let module M = Lognic_sim.Metrics in
  let interval_arg =
    let doc =
      "Snapshot interval in simulated seconds (default: duration/100)."
    in
    Arg.(
      value & opt (some float) None & info [ "interval" ] ~docv:"SECONDS" ~doc)
  in
  let stream_arg =
    let doc =
      "Write every snapshot as one NDJSON line (schema \"metrics\") to \
       $(docv), flushed as the run progresses."
    in
    Arg.(value & opt (some string) None & info [ "stream" ] ~docv:"FILE" ~doc)
  in
  let openmetrics_arg =
    let doc =
      "Write the final cumulative state as OpenMetrics text to $(docv)."
    in
    Arg.(
      value & opt (some string) None & info [ "openmetrics" ] ~docv:"FILE" ~doc)
  in
  let slo_arg =
    let doc =
      "SLO watchdog rule, repeatable. Grammar: [ENTITY.]METRIC>VALUE[xN], \
       [ENTITY.]METRIC<VALUE[xN], or [ENTITY.]METRIC^N (value rising for N \
       consecutive intervals); ENTITY defaults to '*' (any), xN requires N \
       consecutive breaching intervals before firing and the same N clean \
       intervals to resolve. Examples: '*.utilization>0.95x2', \
       'md5.queue_depth^3', 'run.latency_p99>1e-3'."
    in
    Arg.(value & opt_all string [] & info [ "slo" ] ~docv:"RULE" ~doc)
  in
  let alerts_json_arg =
    let doc = "Write the final alert states as JSON (schema \"alerts\") to \
               $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "alerts-json" ] ~docv:"FILE" ~doc)
  in
  let profile_arg =
    let doc =
      "Also run the wall-clock self-profiler (engine phases + GC per \
       interval) and print per-phase totals; write the full report with \
       --profile-json."
    in
    Arg.(value & flag & info [ "profile" ] ~doc)
  in
  let profile_json_arg =
    let doc = "Write the self-profiler report as JSON (schema \"profile\") \
               to $(docv); implies --profile." in
    Arg.(
      value & opt (some string) None & info [ "profile-json" ] ~docv:"FILE" ~doc)
  in
  let run graph_path rate packet duration seed interval stream openmetrics
      slo_rules alerts_json profile profile_json =
    let ( let* ) = Result.bind in
    let* doc = load_document graph_path in
    let dt = match interval with Some dt -> dt | None -> duration /. 100. in
    let* () =
      if dt <= 0. then Error (`Msg "--interval must be > 0") else Ok ()
    in
    let* slo =
      List.fold_left
        (fun acc rule ->
          let* rules = acc in
          match M.Slo.parse rule with
          | Ok r -> Ok (r :: rules)
          | Error e -> Error (`Msg (Spec.error ~flag:"slo" ~src:rule e)))
        (Ok []) slo_rules
      |> Result.map List.rev
    in
    let* mix =
      match (doc.mix, rate, packet) with
      | Some mix, None, None -> Ok mix
      | _ ->
        let* traffic = resolve_traffic doc rate packet in
        Ok [ (traffic, 1.) ]
    in
    let stream_oc = Option.map Out_channel.open_text stream in
    let tty = Unix.isatty Unix.stdout in
    let active = Hashtbl.create 8 in
    let last_draw = ref 0. in
    let render (snap : M.snapshot) =
      Fmt.pr "\027[2J\027[H";
      Fmt.pr "lognic watch   t=%.6fs   snapshot %d@.@." snap.M.s_time
        snap.M.s_seq;
      List.iter
        (fun (e : M.entity_snapshot) ->
          let cells =
            List.map
              (fun (name, s) ->
                match s with
                | M.Counter_s { delta; total } ->
                  Printf.sprintf "%s +%g (%g)" name delta total
                | M.Gauge_s { value } -> Printf.sprintf "%s %g" name value
                | M.Rate_s { value; _ } -> Printf.sprintf "%s %.3f" name value
                | M.Hist_s { count; p99; _ } ->
                  Printf.sprintf "%s n=%d p99=%.3gs" name count p99)
              e.M.e_samples
          in
          Fmt.pr "  %-22s %s@." e.M.e_name (String.concat "  " cells))
        snap.M.s_entities;
      if Hashtbl.length active > 0 then begin
        Fmt.pr "@.active alerts:@.";
        Hashtbl.iter
          (fun (rule, entity) value ->
            Fmt.pr "  ! %s  (entity %s, value %g)@." rule entity value)
          active
      end
    in
    let on_snapshot (snap : M.snapshot) =
      List.iter
        (fun (ev : M.alert_event) ->
          if ev.M.ev_firing then
            Hashtbl.replace active (ev.M.ev_rule, ev.M.ev_entity) ev.M.ev_value
          else Hashtbl.remove active (ev.M.ev_rule, ev.M.ev_entity))
        snap.M.s_alerts;
      (match stream_oc with
      | Some oc ->
        output_string oc (M.snapshot_to_string snap);
        output_char oc '\n';
        flush oc
      | None -> ());
      if tty then begin
        (* throttle redraws to the human eye, not the simulator *)
        let now = Unix.gettimeofday () in
        if now -. !last_draw > 0.05 then begin
          last_draw := now;
          render snap
        end
      end
      else
        List.iter
          (fun (ev : M.alert_event) ->
            Fmt.pr "[%.6f] %s %s (entity %s, value %g)@." snap.M.s_time
              (if ev.M.ev_firing then "ALERT firing:" else "alert resolved:")
              ev.M.ev_rule ev.M.ev_entity ev.M.ev_value)
          snap.M.s_alerts
    in
    let profile = profile || profile_json <> None in
    let config =
      Lognic_sim.Netsim.Config.(
        default |> with_horizon duration |> with_seed seed
        |> with_metrics
             { M.interval = dt; slo; profile; on_snapshot = Some on_snapshot })
    in
    let m = Lognic_sim.Netsim.run ~config doc.graph ~hw:(hardware_of doc) ~mix in
    Option.iter Out_channel.close stream_oc;
    let* mm =
      match m.metrics with
      | Some mm -> Ok mm
      | None -> Error (`Msg "internal error: metrics instance missing")
    in
    if tty then Fmt.pr "@.";
    let s = m.summary in
    Fmt.pr "throughput: %.3f Gbps (%d delivered, %d dropped, loss %.2f%%)@."
      (Lognic.Units.to_gbps s.Lognic_sim.Telemetry.throughput)
      s.delivered_packets s.dropped_packets (100. *. s.loss_rate);
    Fmt.pr "%d snapshots every %gs@." (M.snapshots mm) dt;
    let fired =
      List.filter (fun (a : M.alert) -> a.M.a_first_fired >= 0.) (M.alerts mm)
    in
    if slo <> [] then
      if fired = [] then Fmt.pr "SLO: all %d rules clean@." (List.length slo)
      else
        List.iter
          (fun (a : M.alert) ->
            Fmt.pr
              "SLO %s: entity %s %s — first fired %.6fs, last %.6fs, %d \
               breaching intervals, worst %g@."
              (M.Slo.to_string a.M.a_rule)
              a.M.a_entity
              (if a.M.a_active then "STILL FIRING" else "resolved")
              a.M.a_first_fired a.M.a_last_fired a.M.a_breaches a.M.a_worst)
          fired;
    Option.iter
      (fun path ->
        Out_channel.with_open_text path (fun oc ->
            output_string oc (M.to_openmetrics mm));
        Fmt.pr "openmetrics written to %s@." path)
      openmetrics;
    Option.iter
      (fun path ->
        write_json path (M.alerts_to_json mm);
        Fmt.pr "alerts written to %s@." path)
      alerts_json;
    (match stream with
    | Some path -> Fmt.pr "metrics stream written to %s@." path
    | None -> ());
    (match M.profiler mm with
    | Some p ->
      Fmt.pr "%a@." Lognic_sim.Profile.pp p;
      Option.iter
        (fun path ->
          match M.profile_to_json mm with
          | Some j ->
            write_json path j;
            Fmt.pr "profile written to %s@." path
          | None -> ())
        profile_json
    | None -> ());
    Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ graph_arg $ rate_arg $ packet_arg $ duration_arg
       $ seed_arg $ interval_arg $ stream_arg $ openmetrics_arg $ slo_arg
       $ alerts_json_arg $ profile_arg $ profile_json_arg))
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Simulate with live streaming metrics: per-entity counters, gauges \
          and latency histograms sampled every --interval sim-seconds, \
          delta-encoded NDJSON/OpenMetrics export, SLO watchdog rules with \
          hysteresis, an optional engine self-profiler, and a live \
          refreshing table on a TTY.")
    term

(* explain *)

let explain_cmd =
  let json_arg =
    let doc = "Also write the full explain report as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)
  in
  let run graph_path rate packet queue_model duration seed json =
    let ( let* ) = Result.bind in
    let* doc = load_document graph_path in
    let config =
      Lognic_sim.Netsim.Config.(
        default |> with_horizon duration |> with_seed seed)
    in
    (* a graph carrying `class` lines explains the whole mix (per-class
       residual rows) unless the command line pins a single class *)
    (match (doc.mix, rate, packet) with
    | Some mix, None, None ->
      let report =
        Lognic_sim.Explain.run_mix ~config ~queue_model doc.graph
          ~hw:(hardware_of doc) ~mix
      in
      Fmt.pr "%a@." Lognic_sim.Explain.pp_mix report;
      Option.iter
        (fun path ->
          write_json path (Lognic_sim.Explain.mix_to_json report);
          Fmt.pr "explain report written to %s@." path)
        json;
      Ok ()
    | _ ->
      let* traffic = resolve_traffic doc rate packet in
      let report =
        Lognic_sim.Explain.run ~config ~queue_model doc.graph
          ~hw:(hardware_of doc) ~traffic
      in
      Fmt.pr "%a@." Lognic_sim.Explain.pp report;
      Option.iter
        (fun path ->
          write_json path (Lognic_sim.Explain.to_json report);
          Fmt.pr "explain report written to %s@." path)
        json;
      Ok ())
  in
  let term =
    Term.(
      term_result
        (const run $ graph_arg $ rate_arg $ packet_arg $ queue_model_arg
       $ duration_arg $ seed_arg $ json_arg))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run the analytic model and the simulator on the same graph and \
          traffic, join them per entity, and rank the bottlenecks with \
          residual attribution (model vs measured utilization and queue \
          depths).")
    term

(* tenants *)

let tenants_cmd =
  let tenant_grammar =
    Spec.(grammar ~flag:"tenant"
            [
              field "NAME" Str; field "WEIGHT" Int;
              field ~optional:true "SHARE" Float;
              field ~optional:true "SLO" Float;
            ])
  in
  let tenant_arg =
    let doc =
      "Declare tenant (VF) $(i,NAME) with stage-1 WRR scheduler weight \
       $(i,WEIGHT), an optional relative offered-traffic share $(i,SHARE) \
       (normalized across the set; default 1) and an optional p99 latency \
       SLO $(i,SLO) in seconds (repeatable)."
    in
    Arg.(
      value
      & opt_all string []
      & info [ "tenant" ] ~docv:"NAME:WEIGHT[:SHARE[:SLO]]" ~doc)
  in
  let population_arg =
    let doc =
      "Shorthand for $(i,N) equal-weight, equal-share tenants named \
       vf0000.. — the scale-test population. Exclusive with --tenant."
    in
    Arg.(value & opt (some int) None & info [ "tenants" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Also write the full tenant report as JSON (schema \
               \"tenants\") to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)
  in
  let run graph_path rate packet queue_model duration seed tenant_specs
      population json =
    let ( let* ) = Result.bind in
    let module T = Lognic_sim.Tenant in
    let* doc = load_document graph_path in
    let* traffic = resolve_traffic doc rate packet in
    let* tenants =
      match (tenant_specs, population) with
      | [], None ->
        Error
          (`Msg "no tenants: pass --tenant (repeatable) or --tenants N")
      | _ :: _, Some _ ->
        Error (`Msg "--tenant and --tenants are exclusive")
      | [], Some n -> Ok (T.uniform n)
      | specs, None ->
        let* parsed = parse_specs tenant_grammar specs in
        Ok
          (T.set
             (List.map
                (fun v ->
                  T.spec
                    ~weight:(Spec.get_int v 1)
                    ?share:(Spec.find_float v 2)
                    ?slo_p99:(Spec.find_float v 3)
                    (Spec.get_str v 0))
                parsed))
    in
    let config =
      Lognic_sim.Netsim.Config.(
        default |> with_horizon duration |> with_seed seed)
    in
    let report =
      Lognic_sim.Explain.run_tenants ~config ~queue_model doc.graph
        ~hw:(hardware_of doc) ~traffic ~tenants
    in
    Fmt.pr "%a@." Lognic_sim.Explain.pp_tenants report;
    Option.iter
      (fun path ->
        write_json path (Lognic_sim.Explain.tenants_to_json report);
        Fmt.pr "tenants report written to %s@." path)
      json;
    Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ graph_arg $ rate_arg $ packet_arg $ queue_model_arg
       $ duration_arg $ seed_arg $ tenant_arg $ population_arg $ json_arg))
  in
  Cmd.v
    (Cmd.info "tenants"
       ~doc:
         "Share the NIC between SR-IOV tenants: run one simulation under \
          the two-stage weighted-round-robin arbiter with per-VF \
          attribution, join it against the weighted multi-class M/M/c/N \
          decomposition at the model's bottleneck, and report per-tenant \
          throughput/latency residuals, SLO verdicts and \
          fairness/isolation indices.")
    term

(* flowcache *)

let flowcache_cmd =
  let flows_arg =
    let doc =
      "Flow population size (accepts SI suffixes, e.g. 1M). The Zipf \
       popularity distribution is drawn over this many flows."
    in
    Arg.(value & opt quantity_conv 1e6 & info [ "flows" ] ~docv:"N" ~doc)
  in
  let zipf_arg =
    let doc = "Zipf skew s >= 0 of the flow popularity (0 = uniform)." in
    Arg.(value & opt float 1.0 & info [ "zipf" ] ~docv:"S" ~doc)
  in
  let emc_arg =
    let doc = "Exact-match cache capacity in entries (e.g. 8K)." in
    Arg.(value & opt quantity_conv 8192. & info [ "emc" ] ~docv:"ENTRIES" ~doc)
  in
  let megaflow_arg =
    let doc = "Megaflow-table capacity in entries (e.g. 64K)." in
    Arg.(
      value & opt quantity_conv 65536. & info [ "megaflow" ] ~docv:"ENTRIES" ~doc)
  in
  let ttl_arg =
    let doc =
      "Optional idle timeout in seconds (the OVS flow idle-timeout \
       analogue); entries idle longer count as misses and the model's hit \
       ratios become genuinely rate-dependent."
    in
    Arg.(value & opt (some float) None & info [ "ttl" ] ~docv:"SECONDS" ~doc)
  in
  let load_arg =
    let doc = "Offered load as a fraction of the 25 GbE line rate." in
    Arg.(value & opt float 0.5 & info [ "load" ] ~docv:"FRACTION" ~doc)
  in
  let json_arg =
    let doc =
      "Also write the full flow-cache report as JSON (schema \"flowcache\") \
       to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)
  in
  let run flows zipf emc megaflow ttl load packet queue_model duration seed
      json =
    let module App = Lognic_apps.Flow_cache in
    let module FC = Lognic.Flowcache in
    let cfg =
      match packet with
      | None -> App.default
      | Some packet_size -> { App.default with App.packet_size }
    in
    let spec =
      FC.spec ?ttl ~zipf ~emc_entries:(int_of_float emc)
        ~megaflow_entries:(int_of_float megaflow) ~flows:(int_of_float flows)
        ()
    in
    let config =
      Lognic_sim.Netsim.Config.(
        default |> with_horizon duration |> with_seed seed)
    in
    let report =
      Lognic_sim.Explain.run_flowcache ~config ~queue_model spec
        (App.graph cfg) ~hw:App.hardware ~traffic:(App.traffic ~load cfg)
    in
    Fmt.pr "%a@." Lognic_sim.Explain.pp_flowcache report;
    Option.iter
      (fun path ->
        write_json path (Lognic_sim.Explain.flowcache_to_json report);
        Fmt.pr "flowcache report written to %s@." path)
      json;
    Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ flows_arg $ zipf_arg $ emc_arg $ megaflow_arg $ ttl_arg
       $ load_arg $ packet_arg $ queue_model_arg $ duration_arg $ seed_arg
       $ json_arg))
  in
  Cmd.v
    (Cmd.info "flowcache"
       ~doc:
         "Evaluate the flow-cache offload scenario with state-dependent \
          (feedback) splits: solve the EMC/megaflow hit ratios to a damped \
          fixed point under Che's LRU approximation, simulate the converged \
          datapath with per-packet cache lookups over a Zipf flow \
          population, and join the two — hit ratios, per-class (hot/warm/\
          cold) tail latency, and aggregate residuals.")
    term

(* contention *)

let contention_cmd =
  let resource_arg =
    let doc =
      "Add shared resource $(i,NAME) with byte/s capacity $(i,CAPACITY) to \
       the hardware (repeatable; accepts unit suffixes)."
    in
    Arg.(
      value
      & opt_all string []
      & info [ "resource" ] ~docv:"NAME:CAPACITY" ~doc)
  in
  let demand_arg =
    let doc =
      "Class $(i,CLASS) (0-based mix index) consumes $(i,VALUE) bytes of \
       resource $(i,RESOURCE) per offered byte (repeatable)."
    in
    Arg.(
      value
      & opt_all string []
      & info [ "class-demand" ] ~docv:"CLASS:RESOURCE:VALUE" ~doc)
  in
  let interference_arg =
    let doc =
      "Class $(i,VICTIM) is slowed by $(i,M) times class $(i,AGGRESSOR)'s \
       resource pressure (repeatable)."
    in
    Arg.(
      value
      & opt_all string []
      & info [ "interference" ] ~docv:"VICTIM:AGGRESSOR:M" ~doc)
  in
  let json_arg =
    let doc = "Also write the full contention report as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)
  in
  let resource_grammar =
    Spec.(grammar ~flag:"resource"
            [ field "NAME" Str; field "CAPACITY" Quantity ])
  in
  let demand_grammar =
    Spec.(grammar ~flag:"class-demand"
            [ field "CLASS" Int; field "RESOURCE" Str; field "VALUE" Quantity ])
  in
  let interference_grammar =
    Spec.(grammar ~flag:"interference"
            [ field "VICTIM" Int; field "AGGRESSOR" Int; field "M" Quantity ])
  in
  let run graph_path rate packet queue_model duration seed resources demands
      interferences json =
    let ( let* ) = Result.bind in
    let* doc = load_document graph_path in
    let* mix =
      match (doc.mix, rate, packet) with
      | Some mix, None, None -> Ok mix
      | _ ->
        let* traffic = resolve_traffic doc rate packet in
        Ok [ (traffic, 1.) ]
    in
    let n = List.length mix in
    let* resources =
      parse_specs resource_grammar resources
      |> Result.map
           (List.map (fun v -> (Spec.get_str v 0, Spec.get_float v 1)))
    in
    let* demands =
      parse_specs demand_grammar demands
      |> Result.map
           (List.map (fun v ->
                (Spec.get_int v 0, Spec.get_str v 1, Spec.get_float v 2)))
    in
    let* interferences =
      parse_specs interference_grammar interferences
      |> Result.map
           (List.map (fun v ->
                (Spec.get_int v 0, Spec.get_int v 1, Spec.get_float v 2)))
    in
    let* () =
      let bad =
        List.filter_map
          (fun (c, _, _) -> if c < 0 || c >= n then Some c else None)
          demands
        @ List.concat_map
            (fun (v, a, _) ->
              List.filter (fun i -> i < 0 || i >= n) [ v; a ])
            interferences
      in
      match bad with
      | [] -> Ok ()
      | c :: _ ->
        Error
          (`Msg
             (Printf.sprintf "class index %d out of range (mix has %d classes)"
                c n))
    in
    let hw =
      let base = hardware_of doc in
      if resources = [] then base
      else
        Lognic.Params.with_resources base
          (base.Lognic.Params.resources @ resources)
    in
    let contention =
      if demands = [] && interferences = [] then None
      else
        let demand_vectors =
          List.init n (fun i ->
              List.filter_map
                (fun (c, r, v) -> if c = i then Some (r, v) else None)
                demands)
        in
        let interference =
          let m = Array.make_matrix n n 0. in
          List.iter (fun (v, a, x) -> if v <> a then m.(v).(a) <- x)
            interferences;
          m
        in
        Some
          (Lognic.Extensions.contention ~demands:demand_vectors ~interference)
    in
    let config =
      Lognic_sim.Netsim.Config.(
        default |> with_horizon duration |> with_seed seed)
    in
    let report =
      Lognic_sim.Contention.run ~config ~queue_model ?contention doc.graph ~hw
        ~mix
    in
    Fmt.pr "%a@." Lognic_sim.Contention.pp report;
    Option.iter
      (fun path ->
        write_json path (Lognic_sim.Contention.to_json report);
        Fmt.pr "contention report written to %s@." path)
      json;
    Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ graph_arg $ rate_arg $ packet_arg $ queue_model_arg
       $ duration_arg $ seed_arg $ resource_arg $ demand_arg
       $ interference_arg $ json_arg))
  in
  Cmd.v
    (Cmd.info "contention"
       ~doc:
         "Run the joint multi-class model with the multi-resource contention \
          layer against one simulation: per-class model-vs-sim residuals, \
          contention slowdowns and resource ceilings, and a ranked \
          interference report.")
    term

(* faults *)

let faults_cmd =
  let module F = Lognic_sim.Faults in
  let engine_down_arg =
    let doc =
      "Take $(i,N) engines of vertex $(i,VERTEX) offline on \
       [$(i,START), $(i,STOP)) simulated seconds (repeatable)."
    in
    Arg.(
      value
      & opt_all string []
      & info [ "engine-down" ] ~docv:"VERTEX:N:START:STOP" ~doc)
  in
  let degrade_arg =
    let doc =
      "Run medium $(i,MEDIUM) (interface, memory, or link-SRC-DST) at \
       $(i,FACTOR) of its bandwidth on [$(i,START), $(i,STOP)) (repeatable)."
    in
    Arg.(
      value
      & opt_all string []
      & info [ "degrade" ] ~docv:"MEDIUM:FACTOR:START:STOP" ~doc)
  in
  let queue_shrink_arg =
    let doc =
      "Cap vertex $(i,VERTEX)'s queue at $(i,CAP) entries on \
       [$(i,START), $(i,STOP)) (repeatable)."
    in
    Arg.(
      value
      & opt_all string []
      & info [ "queue-shrink" ] ~docv:"VERTEX:CAP:START:STOP" ~doc)
  in
  let drop_burst_arg =
    let doc =
      "Shed each offered packet with probability $(i,P) on \
       [$(i,START), $(i,STOP)) (repeatable)."
    in
    Arg.(
      value & opt_all string [] & info [ "drop-burst" ] ~docv:"P:START:STOP" ~doc)
  in
  let runs_arg =
    let doc =
      "Replications with derived seeds; >= 2 adds across-run recovery-time \
       and worst-interval statistics."
    in
    Arg.(value & opt int 1 & info [ "runs" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Also write the full faults report as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)
  in
  (* The fault constructors validate their arguments (ordering, ranges)
     with Invalid_argument; surface those through the same quoted-source
     error shape as the field-level parse. *)
  let parse_faults grammar specs mk =
    let ( let* ) = Result.bind in
    let* parsed = parse_specs grammar specs in
    List.fold_left
      (fun acc (src, v) ->
        let* acc = acc in
        match mk v with
        | ev -> Ok (ev :: acc)
        | exception Invalid_argument m ->
          Error (`Msg (Spec.error ~flag:(Spec.flag grammar) ~src m)))
      (Ok [])
      (List.combine specs parsed)
    |> Result.map List.rev
  in
  let engine_down_grammar =
    Spec.(grammar ~flag:"engine-down"
            [
              field "VERTEX" Str; field "N" Int; field "START" Float;
              field "STOP" Float;
            ])
  in
  let degrade_grammar =
    Spec.(grammar ~flag:"degrade"
            [
              field "MEDIUM" Str; field "FACTOR" Float; field "START" Float;
              field "STOP" Float;
            ])
  in
  let queue_shrink_grammar =
    Spec.(grammar ~flag:"queue-shrink"
            [
              field "VERTEX" Str; field "CAP" Int; field "START" Float;
              field "STOP" Float;
            ])
  in
  let drop_burst_grammar =
    Spec.(grammar ~flag:"drop-burst"
            [ field "P" Float; field "START" Float; field "STOP" Float ])
  in
  let run graph_path rate packet queue_model duration seed engine_downs
      degrades queue_shrinks drop_bursts runs jobs json =
    let ( let* ) = Result.bind in
    apply_jobs jobs;
    let* doc = load_document graph_path in
    let* traffic = resolve_traffic doc rate packet in
    let* engine_downs =
      parse_faults engine_down_grammar engine_downs (fun v ->
          F.engine_down ~vertex:(Spec.get_str v 0) ~engines:(Spec.get_int v 1)
            ~start:(Spec.get_float v 2) ~stop:(Spec.get_float v 3))
    in
    let* degrades =
      parse_faults degrade_grammar degrades (fun v ->
          F.medium_degraded ~medium:(Spec.get_str v 0)
            ~factor:(Spec.get_float v 1) ~start:(Spec.get_float v 2)
            ~stop:(Spec.get_float v 3))
    in
    let* queue_shrinks =
      parse_faults queue_shrink_grammar queue_shrinks (fun v ->
          F.queue_shrunk ~vertex:(Spec.get_str v 0)
            ~capacity:(Spec.get_int v 1) ~start:(Spec.get_float v 2)
            ~stop:(Spec.get_float v 3))
    in
    let* drop_bursts =
      parse_faults drop_burst_grammar drop_bursts (fun v ->
          F.drop_burst ~probability:(Spec.get_float v 0)
            ~start:(Spec.get_float v 1) ~stop:(Spec.get_float v 2))
    in
    let plan = engine_downs @ degrades @ queue_shrinks @ drop_bursts in
    let* () =
      if runs < 1 then Error (`Msg "--runs must be >= 1") else Ok ()
    in
    let config =
      Lognic_sim.Netsim.Config.(
        default |> with_horizon duration |> with_seed seed)
    in
    let report =
      Lognic_sim.Resilience.run ~config ~queue_model ~runs ?jobs doc.graph
        ~hw:(hardware_of doc) ~traffic ~plan
    in
    Fmt.pr "%a@." Lognic_sim.Resilience.pp report;
    Option.iter
      (fun path ->
        write_json path (Lognic_sim.Resilience.to_json report);
        Fmt.pr "faults report written to %s@." path)
      json;
    Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ graph_arg $ rate_arg $ packet_arg $ queue_model_arg
       $ duration_arg $ seed_arg $ engine_down_arg $ degrade_arg
       $ queue_shrink_arg $ drop_burst_arg $ runs_arg $ jobs_arg $ json_arg))
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Inject a deterministic fault plan (engine failures, bandwidth \
          degradation, queue shrinks, drop bursts) into the simulator, \
          evaluate the analytic degraded-mode model over the same plan, and \
          join the two per fault interval with availability and recovery \
          statistics.")
    term

(* validate *)

let validate_cmd =
  let dot_arg =
    let doc = "Emit Graphviz DOT instead of the plain dump." in
    Arg.(value & flag & info [ "dot" ] ~doc)
  in
  let run graph_path dot =
    let ( let* ) = Result.bind in
    let* doc = load_document graph_path in
    (match Lognic.Graph.validate doc.graph with
    | Ok () -> Fmt.epr "valid@."
    | Error errors -> List.iter (fun e -> Fmt.epr "error: %s@." e) errors);
    if dot then print_string (Lognic_dsl.Printer.to_dot doc.graph)
    else Fmt.pr "%a@." Lognic.Graph.pp doc.graph;
    Ok ()
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Check and pretty-print (or DOT-render) an execution graph.")
    Term.(term_result (const run $ graph_arg $ dot_arg))

(* optimize *)

let split_arg =
  let doc = "Vertex NAME whose out-edge traffic split the optimizer may rebalance." in
  Arg.(value & opt_all string [] & info [ "split" ] ~docv:"NAME" ~doc)

let queue_arg =
  let doc = "NAME:LO:HI — vertex whose queue capacity may vary in [LO, HI]." in
  Arg.(value & opt_all string [] & info [ "queue" ] ~docv:"SPEC" ~doc)

let objective_arg =
  let doc = "Optimization goal." in
  let objective_conv =
    Arg.enum
      [
        ("max-throughput", `Max_throughput); ("min-latency", `Min_latency);
      ]
  in
  Arg.(value & opt objective_conv `Max_throughput & info [ "objective" ] ~doc)

let search_log_arg =
  let doc = "Write search telemetry (per-candidate scores, best-so-far \
             convergence curve, per-knob evaluation histogram, memo \
             hit-rate) as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "search-log" ] ~docv:"PATH" ~doc)

let optimize_cmd =
  let run graph_path rate packet splits queues objective jobs search_log =
    apply_jobs jobs;
    let ( let* ) = Result.bind in
    let* doc = load_document graph_path in
    let* traffic = resolve_traffic doc rate packet in
    let resolve name =
      match Lognic_dsl.Parser.vertex_id doc name with
      | Some id -> Ok id
      | None -> Error (`Msg (Printf.sprintf "unknown vertex %S" name))
    in
    let* split_knobs =
      List.fold_left
        (fun acc name ->
          let* acc = acc in
          let* id = resolve name in
          Ok (Lognic.Optimizer.Out_split id :: acc))
        (Ok []) splits
    in
    let queue_grammar =
      Spec.(grammar ~flag:"queue"
              [ field "NAME" Str; field "LO" Int; field "HI" Int ])
    in
    let* queue_specs = parse_specs queue_grammar queues in
    let* queue_knobs =
      List.fold_left
        (fun acc v ->
          let* acc = acc in
          let* id = resolve (Spec.get_str v 0) in
          Ok
            (Lognic.Optimizer.Queue_capacity
               (id, Spec.get_int v 1, Spec.get_int v 2)
            :: acc))
        (Ok []) queue_specs
    in
    let knobs = split_knobs @ queue_knobs in
    let* () =
      if knobs = [] then Error (`Msg "no knobs: pass --split and/or --queue")
      else Ok ()
    in
    let objective =
      match objective with
      | `Max_throughput -> Lognic.Optimizer.Maximize_throughput
      | `Min_latency -> Lognic.Optimizer.Minimize_latency
    in
    let log = Option.map (fun _ -> Lognic_sim.Search_log.create ()) search_log in
    let observer = Option.map (fun l -> Lognic_sim.Search_log.observer l) log in
    let solution =
      Lognic.Optimizer.optimize ?observer doc.graph ~hw:(hardware_of doc)
        ~traffic ~knobs objective
    in
    List.iter
      (fun a -> Fmt.pr "%a@." Lognic.Optimizer.pp_assignment a)
      solution.assignment;
    Fmt.pr "%a@."
      (Lognic.Estimate.pp_report solution.graph)
      solution.report;
    Fmt.pr "search: %d model evaluations, %d memo hits@."
      solution.stats.Lognic.Optimizer.evaluations
      solution.stats.Lognic.Optimizer.memo_hits;
    (match (search_log, log) with
    | Some path, Some l ->
      write_json path (Lognic_sim.Search_log.to_json l);
      Fmt.pr "search log written to %s@." path
    | _ -> ());
    Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ graph_arg $ rate_arg $ packet_arg $ split_arg $ queue_arg
       $ objective_arg $ jobs_arg $ search_log_arg))
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Search configurable parameters for a performance goal (optimizer mode).")
    term

(* roofline *)

let roofline_cmd =
  let run graph_path rate packet =
    let ( let* ) = Result.bind in
    let* doc = load_document graph_path in
    let* traffic = resolve_traffic doc rate packet in
    let g = doc.graph in
    let size = traffic.Lognic.Traffic.packet_size in
    let intensity = 1. /. size in
    List.iter
      (fun (v : Lognic.Graph.vertex) ->
        match Lognic.Roofline.of_vertex g ~hw:(hardware_of doc) ~packet_size:size v.id with
        | None -> ()
        | Some r ->
          Fmt.pr
            "%-16s peak %8.3f Gbps | attainable %8.3f Gbps | bound by %s@."
            v.label
            (Lognic.Units.to_gbps (r.Lognic.Roofline.peak_ops *. size))
            (Lognic.Units.to_gbps
               (Lognic.Roofline.attainable_bytes r ~intensity))
            (Lognic.Roofline.binding_ceiling r ~intensity))
      (Lognic.Graph.vertices g);
    Ok ()
  in
  Cmd.v
    (Cmd.info "roofline"
       ~doc:
         "Print each IP vertex's extended roofline at the traffic's packet \
          size (peak vs medium ceilings, binding constraint).")
    Term.(term_result (const run $ graph_arg $ rate_arg $ packet_arg))

(* sensitivity *)

let sensitivity_cmd =
  let run graph_path rate packet queue_model jobs =
    apply_jobs jobs;
    let ( let* ) = Result.bind in
    let* doc = load_document graph_path in
    let* traffic = resolve_traffic doc rate packet in
    let g = doc.graph in
    let elasticities =
      Lognic.Sensitivity.analyze ~queue_model g ~hw:(hardware_of doc) ~traffic
    in
    Fmt.pr "parameter        d(throughput)/d(param)  d(latency)/d(param)@.";
    List.iter
      (fun (e : Lognic.Sensitivity.elasticity) ->
        Fmt.pr "%-16s %12.3f  %21.3f@."
          (Fmt.str "%a" (Lognic.Sensitivity.pp_parameter g) e.parameter)
          e.throughput_elasticity e.latency_elasticity)
      elasticities;
    Fmt.pr "most binding: %a@."
      (Lognic.Sensitivity.pp_parameter g)
      (Lognic.Sensitivity.most_binding elasticities);
    Ok ()
  in
  let term =
    Term.(
      term_result
        (const run $ graph_arg $ rate_arg $ packet_arg $ queue_model_arg
       $ jobs_arg))
  in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:
         "Compute per-parameter elasticities: which knob limits throughput or \
          drives latency.")
    term

(* params *)

let params_cmd =
  let run () =
    Lognic_apps.Figures.table2 Fmt.stdout;
    Ok ()
  in
  Cmd.v
    (Cmd.info "params" ~doc:"Print the LogNIC parameter glossary (paper Table 2).")
    Term.(term_result (const run $ const ()))

(* figures *)

let figures_cmd =
  let figure_arg =
    let doc = "Figure ids to render (default: all)." in
    Arg.(value & pos_all string [] & info [] ~docv:"FIG" ~doc)
  in
  let quick_arg =
    let doc = "Shorter simulations (less precise measured series)." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let run figures quick jobs =
    apply_jobs jobs;
    let speed = if quick then Lognic_apps.Figures.Quick else Lognic_apps.Figures.Full in
    match figures with
    | [] ->
      Lognic_apps.Figures.all ~speed Fmt.stdout;
      Ok ()
    | figures ->
      List.fold_left
        (fun acc name ->
          match acc with
          | Error _ as e -> e
          | Ok () -> (
            match Lognic_apps.Figures.render ~speed name Fmt.stdout with
            | Ok () -> Ok ()
            | Error e -> Error (`Msg e)))
        (Ok ()) figures
  in
  Cmd.v
    (Cmd.info "figures"
       ~doc:"Regenerate the paper's evaluation figures (model + simulator).")
    Term.(term_result (const run $ figure_arg $ quick_arg $ jobs_arg))

let () =
  let info =
    Cmd.info "lognic" ~version:"1.0.0"
      ~doc:"LogNIC: a high-level performance model for SmartNICs"
  in
  let group =
    Cmd.group info
      [
        estimate_cmd; sweep_cmd; simulate_cmd; check_cmd; report_cmd; watch_cmd;
        explain_cmd; tenants_cmd; flowcache_cmd; contention_cmd; faults_cmd;
        validate_cmd;
        optimize_cmd; sensitivity_cmd; roofline_cmd; params_cmd; figures_cmd;
      ]
  in
  (* The one exception boundary: library calls reject bad input with
     [Invalid_argument], reported like any other command-line error. *)
  exit
    (try Cmd.eval ~catch:false group
     with Invalid_argument m ->
       Fmt.epr "lognic: %s@." m;
       Cmd.Exit.cli_error)
