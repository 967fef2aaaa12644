(* The benchmark's four workloads. Each is a closed loop on the host:
   the harness calls [call] back to back, so a slower build simply
   completes fewer reps. Simulated traffic inside a rep is open loop
   (Poisson arrivals paced by the generator at a fixed offered rate).

   The seed reaches the simulator through [Netsim.Config.with_seed];
   everything else about a workload is fixed, so one seed always gives
   the same inputs and every rep of a run must produce the same bytes. *)

module NS = Lognic_sim.Netsim
module Json = Harness.Json
module D = Lognic_devices
module App = Lognic_apps.Flow_cache
module Figures = Lognic_apps.Figures

type outcome = {
  bytes : string;  (** must be identical across the reps of one run *)
  checks : (string * bool) list;
}

type t = {
  jobs : int;  (** domains the timed call may use *)
  setup : unit -> unit;  (** the timed call at a 1e-9 s horizon *)
  warmup : unit -> unit;  (** untimed, at a tenth of the length *)
  call : unit -> unit -> outcome;
      (** the timed call; the thunk it returns serializes and checks the
          result outside the timer *)
}

let md5_graph =
  D.Liquidio.inline_accel_graph ~spec:D.Accel_spec.md5
    ~packet_size:Lognic.Units.mtu ()

let md5_hw = D.Liquidio.hardware

let md5_traffic ~load =
  Lognic.Traffic.make
    ~rate:(load *. D.Liquidio.line_rate)
    ~packet_size:Lognic.Units.mtu

let config_of ~seed horizon = NS.Config.(default |> with_seed seed |> with_horizon horizon)

let summary_checks (m : NS.measurement) json =
  let s = m.NS.summary in
  [
    ("finite measurement JSON", Harness.finite_json json);
    ( "0 <= loss_rate <= 1",
      s.Lognic_sim.Telemetry.loss_rate >= 0. && s.Lognic_sim.Telemetry.loss_rate <= 1. );
    ("packets delivered", s.Lognic_sim.Telemetry.delivered_packets > 0);
  ]

(* The md5 graph for [horizon] simulated seconds at [load] × line rate,
   its config passed through [config]. *)
let md5_run ?(load = 1.) ?(config = Fun.id) ~seed horizon =
  NS.Run.single
    ~config:(config (config_of ~seed horizon))
    md5_graph ~hw:md5_hw ~traffic:(md5_traffic ~load)

let execute run = Harness.span "Netsim.execute" (fun () -> NS.execute run)

(* --- md5-line-rate: the reference run, every optional layer off --- *)

(* Reps of about 0.8 s give a run some 30 of them; wall_s keeps the
   fastest, and the more reps a run holds the likelier one misses every
   burst of host noise. *)
let md5_line_rate ~seed =
  let horizon = 0.25 in
  let run h = md5_run ~seed h in
  {
    jobs = 1;
    setup = (fun () -> ignore (NS.execute (run 1e-9)));
    warmup = (fun () -> ignore (NS.execute (run (horizon /. 10.))));
    call =
      (fun () ->
        let m = execute (run horizon) in
        fun () ->
          let json = NS.measurement_to_json m in
          { bytes = Json.to_string json; checks = summary_checks m json });
  }

(* --- md5-all-layers: the same graph with every optional layer on --- *)

(* The 16-VF population pinned by the tenants golden fixture. *)
let golden_tenants () =
  let module T = Lognic_sim.Tenant in
  T.set
    (T.spec ~weight:8 ~share:4. ~slo_p99:1e-3 "gold"
    :: T.spec ~weight:4 ~share:2. ~slo_p99:5e-3 "silver"
    :: T.spec ~weight:2 "bronze"
    :: List.init 13 (fun i -> T.spec (Printf.sprintf "vf%02d" i)))

(* The md5-faults golden plan (a 2 ms horizon), stretched to [horizon]. *)
let fault_plan horizon =
  let module F = Lognic_sim.Faults in
  let at t = t *. horizon /. 2e-3 in
  [
    F.engine_down ~vertex:"ip2.MD5" ~engines:1 ~start:(at 5e-4) ~stop:(at 1e-3);
    F.medium_degraded ~medium:"interface" ~factor:0.5 ~start:(at 4e-4) ~stop:(at 8e-4);
    F.drop_burst ~probability:0.25 ~start:(at 1e-3) ~stop:(at 1.4e-3);
  ]

(* Metrics every 1 ms with one SLO rule, each snapshot appended to
   [sink] as NDJSON. *)
let streaming_metrics sink =
  let module M = Lognic_sim.Metrics in
  {
    M.default_config with
    M.slo = [ M.Slo.parse_exn "*.utilization>0.5" ];
    on_snapshot =
      Some
        (fun snap ->
          M.snapshot_to_buffer sink snap;
          Buffer.add_char sink '\n');
  }

let all_layers_config ~sink c =
  NS.Config.(
    c |> with_invariants true
    |> with_metrics (streaming_metrics sink)
    |> with_trace { Lognic_sim.Trace.reservoir = 64 }
    |> with_tenants (golden_tenants ()))

let md5_all_layers ~seed =
  let horizon = 0.5 in
  let sink = Buffer.create (1 lsl 20) in
  let run h =
    NS.Run.with_faults
      (md5_run ~load:0.5 ~config:(all_layers_config ~sink) ~seed h)
      (fault_plan h)
  in
  {
    jobs = 1;
    setup =
      (fun () ->
        Buffer.clear sink;
        ignore (NS.execute (run 1e-9)));
    warmup =
      (fun () ->
        Buffer.clear sink;
        ignore (NS.execute (run (horizon /. 10.))));
    call =
      (fun () ->
        Buffer.clear sink;
        let m = execute (run horizon) in
        fun () ->
          let json = NS.measurement_to_json m in
          let invariants_ok =
            match m.NS.invariants with
            | Some r -> Lognic_sim.Invariants.ok r
            | None -> false
          in
          let tenants =
            match m.NS.tenants with
            | Some t -> Json.to_string (Lognic_sim.Tenant.stats_to_json t)
            | None -> ""
          in
          let trace =
            match m.NS.trace with
            | Some t -> Lognic_sim.Trace.to_chrome_string t
            | None -> ""
          in
          {
            bytes =
              String.concat "\n"
                [
                  Json.to_string json;
                  tenants;
                  Digest.to_hex (Digest.string (Buffer.contents sink));
                  Digest.to_hex (Digest.string trace);
                ];
            checks =
              summary_checks m json
              @ [
                  ("zero invariant violations", invariants_ok);
                  ("metrics streamed", Buffer.length sink > 0);
                  ("tenant attribution present", tenants <> "");
                  ("trace reservoir present", trace <> "");
                ];
          });
  }

(* --- flowcache-250k-ttl: the analytic fixed point dominates --- *)

(* 250K flows keep a rep near two seconds, so a run holds about ten
   reps; at 1M flows the fixed point alone takes about 5.5 s. The
   population still outgrows the megaflow table fourfold and its alias
   table (4 MB) the L2 cache. *)
let flowcache_spec () = Lognic.Flowcache.spec ~ttl:1e-3 ~flows:250_000 ()

let fc_graph = App.graph App.default
let fc_traffic = App.traffic App.default

(* A run of the flow-cache graph ([graph], by default with its initial
   static splits), with the workload's cache unless [cache = false]. *)
let flowcache_run ?(cache = true) ?(graph = fc_graph) ~seed horizon =
  let c = config_of ~seed horizon in
  let c = if cache then NS.Config.with_flow_cache (flowcache_spec ()) c else c in
  NS.Run.single ~config:c graph ~hw:App.hardware ~traffic:fc_traffic

let flowcache_250k_ttl ~seed =
  (* With a 1 ms TTL the caches reach steady state within a few ms, so a
     50 ms horizon measures the same hit ratios as 0.5 s (0.4526 vs
     0.4525 at 1M flows, seed 7). *)
  let horizon = 0.05 in
  let sim h = flowcache_run ~seed h in
  {
    jobs = 1;
    setup = (fun () -> ignore (NS.execute (sim 1e-9)));
    warmup = (fun () -> ignore (NS.execute (sim (horizon /. 10.))));
    call =
      (fun () ->
        let report =
          Harness.span "Explain.run_flowcache" (fun () ->
              Lognic_sim.Explain.run_flowcache ~config:(config_of ~seed horizon)
                (flowcache_spec ()) fc_graph ~hw:App.hardware ~traffic:fc_traffic)
        in
        fun () ->
          let module E = Lognic_sim.Explain in
          let json = E.flowcache_to_json report in
          {
            bytes = Json.to_string json;
            checks =
              summary_checks report.E.fc_measurement json
              @ [
                  ("fixed point converged", report.E.fc_model.Lognic.Flowcache.converged);
                ];
          });
  }

(* --- figures-quick: the regenerate-the-paper path --- *)

(* The four renders longer than 2.5 s on their own (fig10, fig15,
   ext-hol, ext-netcache: 3.5 to 10 s each) are left out, so a rep
   takes about three seconds and a run holds several. *)
let figure_ids =
  List.filter
    (fun id -> not (List.mem id [ "fig10"; "fig15"; "ext-hol"; "ext-netcache" ]))
    Figures.names

(* Two domains, as the paper-regeneration path runs them, but never
   more than the machine has. *)
let figure_jobs = min 2 (Domain.recommended_domain_count ())

type rendered = {
  id : string;
  ok : bool;
  text : string;
  start : float;
  seconds : float;
}

let render id =
  let start = Harness.now () in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let ok = Figures.render ~speed:Figures.Quick id ppf = Ok () in
  Format.pp_print_flush ppf ();
  { id; ok; text = Buffer.contents buf; start; seconds = Harness.now () -. start }

(* Each figure into its own buffer on the domain pool, as [Figures.all]
   renders them, under one span with a child span per figure. *)
let render_all ~jobs ids =
  Harness.span "Figures.render (parallel)" (fun () ->
      let rendered = Lognic_sim.Parallel.map ~jobs render ids in
      List.iter
        (fun r -> Harness.record_span ("figure " ^ r.id) ~start:r.start ~dur:r.seconds)
        rendered;
      rendered)

(* "inf" is a legitimate cell (an unbounded M/M/1 wait past ρ = 1);
   "nan" never is. *)
let has_nan text =
  let words =
    String.split_on_char ' ' (String.map (function '\n' | '\t' | '/' -> ' ' | c -> c) text)
  in
  List.exists (fun w -> String.lowercase_ascii w = "nan") words

let figures_quick ~seed =
  let jobs = figure_jobs in
  let setup_runs =
    List.map
      (fun (graph, hw, traffic) ->
        NS.Run.single ~config:(config_of ~seed 1e-9) graph ~hw ~traffic)
      [
        (md5_graph, md5_hw, md5_traffic ~load:1.);
        ( D.Liquidio.inline_accel_graph ~granularity:8192. ~spec:D.Accel_spec.crc
            ~packet_size:1024. (),
          md5_hw,
          Lognic.Traffic.make ~rate:D.Liquidio.line_rate ~packet_size:1024. );
        ( D.Stingray.nvme_of_graph ~io:D.Ssd.rrd_4k (),
          D.Stingray.hardware,
          Lognic.Traffic.make ~rate:2e9 ~packet_size:(4. *. Lognic.Units.kib) );
      ]
  in
  {
    jobs;
    (* the figures' sims pay Netsim setup once per point: time it on the
       device graphs they simulate *)
    setup = (fun () -> List.iter (fun r -> ignore (NS.execute r)) setup_runs);
    warmup =
      (fun () -> ignore (render_all ~jobs [ "table2"; "fig11"; "ext-tail" ]));
    call =
      (fun () ->
        let rendered = render_all ~jobs figure_ids in
        fun () ->
          let text = String.concat "" (List.map (fun r -> r.text) rendered) in
          {
            bytes = text;
            checks =
              [
                ("every figure rendered", List.for_all (fun r -> r.ok) rendered);
                ("no NaN in figures", not (has_nan text));
              ];
          });
  }

(* Why each workload is here is recorded in BENCHMARK.json and
   ledger/README.md. *)
let all =
  [
    ("md5-line-rate", md5_line_rate);
    ("md5-all-layers", md5_all_layers);
    ("flowcache-250k-ttl", flowcache_250k_ttl);
    ("figures-quick", figures_quick);
  ]
