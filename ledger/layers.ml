(* Per-layer probes for the traced run. Each probe calls one layer's
   public functions and returns (name, unit, value) rows; the comment
   above it names the end-to-end metric and workload it should move.
   The probe set is the same whichever workload is traced, so every
   traced run reports every per-layer metric. *)

module NS = Lognic_sim.Netsim
module E = Lognic_sim.Engine
module Json = Harness.Json
module Rng = Lognic_numerics.Rng
module Dist = Lognic_numerics.Dist
module W = Workloads
module App = Lognic_apps.Flow_cache

type row = string * string * float

let json_of run = Json.to_string (NS.measurement_to_json (NS.execute run))

(* Minor words per event in the steady state: the difference between a
   2x and a 1x horizon cancels per-run setup. Each horizon runs twice on
   one engine so the measured run reuses warm queue storage. *)
let words_per_event run_at =
  let engine = E.create () in
  let measure h =
    ignore (NS.execute_with ~engine (run_at h));
    let w0 = Gc.minor_words () in
    ignore (NS.execute_with ~engine (run_at h));
    (Gc.minor_words () -. w0, E.executed engine)
  in
  let w1, e1 = measure 1e-2 in
  let w2, e2 = measure 2e-2 in
  (w2 -. w1) /. float_of_int (e2 - e1)

(* Engine / Event_queue / Netsim -> wall_s@md5-line-rate. A fused event
   lowers engine.events and engine.events_per_s together, so neither is
   an end-to-end metric. *)
let engine ~seed : row list =
  let engine = E.create () in
  let run = W.md5_run ~seed 1e-2 in
  ignore (NS.execute_with ~engine run);
  let resizes0 = E.queue_resizes engine in
  let m = NS.execute_with ~engine run in
  let events = E.executed engine in
  let resizes = E.queue_resizes engine - resizes0 in
  let wall =
    Harness.median_time ~min_reps:15 (fun () ->
        ignore (NS.execute_with ~engine run))
  in
  let events_f = float_of_int events in
  [
    ("engine.events", "count", events_f);
    ("engine.queue_resizes", "count", float_of_int resizes);
    ("engine.words_per_event", "words", words_per_event (W.md5_run ~seed));
    ("engine.events_per_s", "1/s", events_f /. wall);
    ("netsim.events_per_packet", "count", events_f /. float_of_int m.NS.generated);
    ("netsim.sim_speed", "s/s", 1e-2 /. wall);
  ]

(* One pop plus one push with 64 events pending, increments drawn
   ahead of time from an exponential so only the queue is timed. *)
let event_queue ~seed : row list =
  let module Q = Lognic_sim.Event_queue in
  let rng = Rng.create ~seed in
  let incs = Array.init 4096 (fun _ -> Dist.sample_exponential ~rate:1. rng) in
  let q = Q.create () in
  Array.iteri (fun i dt -> if i < 64 then Q.push q ~time:dt ()) incs;
  let n = 1_000_000 in
  let hold () =
    for i = 1 to n do
      if Q.locate q ~horizon:infinity then begin
        let t = Q.located_time q in
        Q.take q;
        Q.push q ~time:(t +. incs.(i land 4095)) ()
      end
    done
  in
  hold ();
  [ ("event_queue.hold_ns", "ns", Harness.median_time hold /. float_of_int n *. 1e9) ]

(* Self time per event in each phase of the existing Profile hook
   (metrics.profile). The profiler costs about 2.3x on this run, so the
   numbers attribute time between phases; they do not add up to the
   unprofiled run. "other" is the netsim thunks: routing, flights and
   arrivals. -> wall_s@md5-line-rate *)
let profile ~seed : row list =
  let module P = Lognic_sim.Profile in
  let metrics = { Lognic_sim.Metrics.default_config with profile = true } in
  let run = W.md5_run ~seed ~config:(NS.Config.with_metrics metrics) 2e-2 in
  let engine = E.create () in
  ignore (NS.execute_with ~engine run);
  let m = NS.execute_with ~engine run in
  let events = float_of_int (E.executed engine) in
  match Option.bind m.NS.metrics Lognic_sim.Metrics.profiler with
  | None -> failwith "profile: metrics.profile produced no profiler"
  | Some p ->
    let ns phase = P.self_seconds p phase /. events *. 1e9 in
    [
      ("profile.queue_ns", "ns", ns P.phase_queue);
      ("profile.node_ns", "ns", ns P.phase_node);
      ("profile.media_ns", "ns", ns P.phase_media);
      ("profile.other_ns", "ns", ns P.phase_other);
      ( "profile.node_enters_per_event",
        "count",
        float_of_int (P.enter_count p P.phase_node) /. events );
    ]

(* Host ns per request through a node or medium on a standalone engine:
   a Poisson source at 80% load, so each request costs its submit, its
   dispatch and its completion event. *)
let per_request ~seed ~rate ~requests submit =
  let engine = E.create () in
  let rng = Rng.create ~seed in
  let submit = submit engine (Rng.split rng) in
  let n = ref 0 in
  let rec arrive () =
    submit !n;
    incr n;
    E.schedule_after engine ~delay:(Dist.sample_exponential ~rate rng) arrive
  in
  E.schedule engine ~at:0. arrive;
  let (), dt =
    Harness.time (fun () -> E.run ~until:(float_of_int requests /. rate) engine)
  in
  dt /. float_of_int !n *. 1e9

(* Median of three samples after one discarded warm-up. *)
let steady sample =
  ignore (sample ());
  Harness.median (List.init 3 (fun _ -> sample ()))

let done_ () = ()

(* -> wall_s@md5-line-rate (flat) and wall_s@md5-all-layers (16 groups) *)
let ip_node ~seed : row list =
  let module N = Lognic_sim.Ip_node in
  let engines = 4 and rate_per_engine = 1e9 and work = 1500. in
  let rate = 0.8 *. float_of_int engines *. rate_per_engine /. work in
  let probe make queues =
    steady (fun () ->
        per_request ~seed ~rate ~requests:200_000 (fun engine rng ->
            let node = make engine rng in
            fun i -> ignore (N.submit_at node ~queue:(i mod queues) ~work done_)))
  in
  let flat engine rng =
    N.create engine ~rng ~label:"flat" ~engines ~rate_per_engine ~queue_capacity:64
      ~service_dist:N.Exponential
  in
  let hier engine rng =
    N.create_hierarchical engine ~rng ~label:"hier" ~engines ~rate_per_engine
      ~entries_per_queue:16 ~group_weights:(Array.make 16 1)
      ~class_weights:(Array.make 16 [| 1 |]) ~service_dist:N.Exponential
  in
  [
    ("ip_node.submit_ns", "ns", probe flat 1);
    ("ip_node.hier_submit_ns", "ns", probe hier 16);
  ]

(* -> wall_s@md5-line-rate *)
let medium ~seed : row list =
  let module M = Lognic_sim.Medium in
  let bandwidth = 1e10 and bytes = 1500. in
  let rate = 0.8 *. bandwidth /. bytes in
  let transfer_ns =
    steady (fun () ->
        per_request ~seed ~rate ~requests:200_000 (fun engine _ ->
            let medium = M.create engine ~label:"medium" ~bandwidth () in
            fun _ -> ignore (M.transfer medium ~bytes done_)))
  in
  [ ("medium.transfer_ns", "ns", transfer_ns) ]

(* Interleaved minima in blocks (the tenant gate's timing protocol):
   each block keeps the fastest off and on run of a few interleaved
   pairs, so a slow stretch of the machine dilates both sides alike.
   The gate takes the smallest block ratio, which suits a pass/fail
   budget but reads low as a measurement; this reports the median. *)
let layer_cost ~blocks ~pairs off on_ =
  let timed run = snd (Harness.time (fun () -> ignore (NS.execute run))) in
  ignore (timed off);
  ignore (timed on_);
  let block () =
    let off_min = ref infinity and on_min = ref infinity in
    for _ = 1 to pairs do
      off_min := Float.min !off_min (timed off);
      on_min := Float.min !on_min (timed on_)
    done;
    (!on_min /. !off_min) -. 1.
  in
  Harness.median (List.init blocks (fun _ -> block ()))

(* Each optional layer on versus off, md5 at half line rate. Whether
   the off (or observation-only on) state leaves the measurement JSON
   byte-identical is a check, not a metric. -> wall_s@md5-all-layers;
   the flow cache -> wall_s@flowcache-250k-ttl. *)
let optional_layers ~seed : row list =
  let horizon = 0.02 in
  let traffic = W.md5_traffic ~load:0.5 in
  let config = W.config_of ~seed horizon in
  let plain = W.md5_run ~seed ~load:0.5 horizon in
  let plain_json = json_of plain in
  let metrics = W.streaming_metrics (Buffer.create 65536) in
  let with_config f = NS.Run.with_config plain (f config) in
  let observation_only name on_ =
    Harness.check (name ^ " on leaves measurement JSON unchanged") (json_of on_ = plain_json);
    on_
  in
  let legacy =
    Json.to_string
      (NS.measurement_to_json
         (NS.run_single ~config W.md5_graph ~hw:W.md5_hw ~traffic))
  in
  Harness.check "empty fault plan matches run_single" (legacy = plain_json);
  let solo = with_config (NS.Config.with_tenants (Lognic_sim.Tenant.set [ Lognic_sim.Tenant.spec "solo" ])) in
  Harness.check "single-tenant run matches untenanted" (json_of solo = plain_json);
  let layers =
    [
      (* a zero-probability burst over the whole horizon: the fault
         stream and per-packet interval accounting run, nothing drops *)
      ( "faults",
        NS.Run.with_faults plain
          [ Lognic_sim.Faults.drop_burst ~probability:0. ~start:0. ~stop:horizon ] );
      ("invariants", observation_only "invariants" (with_config (NS.Config.with_invariants true)));
      ("metrics", observation_only "metrics" (with_config (NS.Config.with_metrics metrics)));
      ( "trace",
        observation_only "trace"
          (with_config (NS.Config.with_trace { Lognic_sim.Trace.reservoir = 64 })) );
      ("tenants", with_config (NS.Config.with_tenants (W.golden_tenants ())));
    ]
  in
  let costs =
    List.map
      (fun (name, on_) ->
        Harness.span ("layer." ^ name) (fun () ->
            (Printf.sprintf "layer.%s.cost" name, "ratio", layer_cost ~blocks:5 ~pairs:2 plain on_)))
      layers
  in
  let fc_plain = W.flowcache_run ~cache:false ~seed 0.05 in
  let round_trip =
    NS.Config.(
      W.config_of ~seed 0.05 |> with_flow_cache (W.flowcache_spec ()) |> without_flow_cache)
  in
  Harness.check "flow-cache round-trip config matches plain run"
    (json_of (NS.Run.with_config fc_plain round_trip) = json_of fc_plain);
  let fc_cost =
    Harness.span "layer.flow_cache" (fun () ->
        layer_cost ~blocks:3 ~pairs:1 fc_plain (W.flowcache_run ~seed 0.05))
  in
  costs @ [ ("layer.flow_cache.cost", "ratio", fc_cost) ]

(* Steady-state allocation added by a layer at scale: tenants at 2000
   VFs on md5, the flow cache at the workload's 250K flows on its own
   graph. *)
let allocation_deltas ~seed : row list =
  let half h = W.md5_run ~seed ~load:0.5 h in
  let tenants h =
    W.md5_run ~seed ~load:0.5
      ~config:(NS.Config.with_tenants (Lognic_sim.Tenant.uniform 2000))
      h
  in
  [
    ( "tenant.words_per_event_delta",
      "words",
      words_per_event tenants -. words_per_event half );
    ( "flow_cache.words_per_event_delta",
      "words",
      words_per_event (W.flowcache_run ~seed)
      -. words_per_event (W.flowcache_run ~cache:false ~seed) );
  ]

(* The simulator's flow cache on its own: setup at 250K flows
   -> setup_s@flowcache-250k-ttl; one draw plus lookups per packet
   -> wall_s@flowcache-250k-ttl; hit ratios are its useful-outcome
   ratios. *)
let flow_cache ~seed : row list =
  let module FC = Lognic_sim.Flow_cache in
  let spec = W.flowcache_spec () in
  let setup =
    Harness.median_time ~min_reps:3 (fun () -> ignore (FC.create ~spec ~warmup:0.))
  in
  let packet_rate = Lognic.Traffic.packet_rate W.fc_traffic in
  let n = 2_000_000 in
  let rng = Rng.create ~seed in
  let t = FC.create ~spec ~warmup:(float_of_int (n / 2) /. packet_rate) in
  let (), dt =
    Harness.time (fun () ->
        for i = 1 to n do
          let now = float_of_int i /. packet_rate in
          let flow = FC.draw t ~bits:(Rng.bits rng) in
          if not (FC.emc_lookup t ~now ~flow) then ignore (FC.mega_lookup t ~now ~flow)
        done)
  in
  let stats = FC.summarize t ~horizon:(float_of_int n /. packet_rate) in
  [
    ("flow_cache.setup_s", "s", setup);
    ("flow_cache.lookup_ns", "ns", dt /. float_of_int n *. 1e9);
    ("flow_cache.emc_hit_ratio", "ratio", stats.FC.fc_emc_hit_ratio);
    ("flow_cache.overall_hit_ratio", "ratio", stats.FC.fc_overall_hit_ratio);
  ]

(* The analytic fixed point at 250K flows with a 1 ms TTL, then the same
   join Explain.run_flowcache makes against a 50 ms simulation of the
   converged graph. -> wall_s@flowcache-250k-ttl *)
let flowcache_model ~seed : row list =
  let module F = Lognic.Flowcache in
  let spec = W.flowcache_spec () in
  let result, evaluate_s =
    Harness.time (fun () ->
        Harness.span "Flowcache.evaluate" (fun () ->
            F.evaluate spec W.fc_graph ~hw:App.hardware ~traffic:W.fc_traffic))
  in
  Harness.check "flowcache fixed point converged" result.F.converged;
  let rates =
    Array.map
      (fun p -> p *. Lognic.Traffic.packet_rate W.fc_traffic)
      (F.zipf_weights ~flows:spec.F.flows ~s:spec.F.zipf)
  in
  let che =
    Harness.median_time ~min_reps:3 (fun () ->
        ignore (F.hit_ratios ?ttl:spec.F.ttl ~rates ~capacity:spec.F.megaflow_entries ()))
  in
  let m = NS.execute (W.flowcache_run ~graph:result.F.graph ~seed 0.05) in
  let sim = Option.get m.NS.flow_cache in
  let s = m.NS.summary in
  [
    ("flowcache.evaluate_s", "s", evaluate_s);
    ("flowcache.iterations", "count", float_of_int result.F.iterations);
    ("flowcache.che_ns_per_flow", "ns", che /. float_of_int spec.F.flows *. 1e9);
    ( "model.flowcache_tput_error",
      "ratio",
      Lognic_sim.Explain.relative_error ~model:result.F.throughput.Lognic.Throughput.attained
        ~sim:s.Lognic_sim.Telemetry.throughput );
    ( "model.flowcache_latency_error",
      "ratio",
      Lognic_sim.Explain.relative_error ~model:result.F.latency.Lognic.Latency.mean
        ~sim:s.Lognic_sim.Telemetry.mean_latency );
    ( "model.flowcache_hit_ratio_error",
      "abs",
      Float.abs (result.F.overall_hit_ratio -. sim.Lognic_sim.Flow_cache.fc_overall_hit_ratio) );
  ]

(* Model-vs-simulator agreement on the reference run. There is no
   hardware reference in the repo, so this is agreement, not
   validation. *)
let md5_agreement ~seed : row list =
  let traffic = W.md5_traffic ~load:1. in
  let model = Lognic.Estimate.run W.md5_graph ~hw:W.md5_hw ~traffic in
  let s = (NS.execute (W.md5_run ~seed 0.1)).NS.summary in
  [
    ( "model.md5_tput_error",
      "ratio",
      Lognic_sim.Explain.relative_error ~model:model.Lognic.Estimate.throughput.Lognic.Throughput.attained
        ~sim:s.Lognic_sim.Telemetry.throughput );
    ( "model.md5_latency_error",
      "ratio",
      Lognic_sim.Explain.relative_error ~model:model.Lognic.Estimate.latency.Lognic.Latency.mean
        ~sim:s.Lognic_sim.Telemetry.mean_latency );
  ]

let steering =
  {|hardware interface=800Gbps memory=600Gbps
vertex rx ingress throughput=250Gbps queue=256
vertex sched ip throughput=250Gbps queue=128
vertex a1 ip throughput=32Gbps queue=8
vertex a2 ip throughput=56Gbps queue=8
vertex a3 ip throughput=24Gbps queue=8
vertex tx egress throughput=250Gbps
edge rx -> sched alpha=1.0
edge sched -> a1 delta=0.33 alpha=0.33
edge sched -> a2 delta=0.34 alpha=0.34
edge sched -> a3 delta=0.33 alpha=0.33
edge a1 -> tx delta=0.33 alpha=0.33
edge a2 -> tx delta=0.34 alpha=0.34
edge a3 -> tx delta=0.33 alpha=0.33
traffic rate=80Gbps packet=512B
|}

(* Analytic calls -> wall_s@flowcache-250k-ttl and wall_s@figures-quick. *)
let analytic ~seed:_ : row list =
  let module O = Lognic.Optimizer in
  let us f = Harness.median_time ~min_reps:100 ~min_seconds:0.2 f *. 1e6 in
  let md5 = W.md5_traffic ~load:1. in
  let nvme = Lognic_devices.Stingray.nvme_of_graph ~io:Lognic_devices.Ssd.rrd_4k () in
  let mix =
    [
      (Lognic.Traffic.make ~rate:1.2e9 ~packet_size:(4. *. Lognic.Units.kib), 0.7);
      (Lognic.Traffic.make ~rate:3e8 ~packet_size:512., 0.3);
    ]
  in
  let doc =
    match Lognic_dsl.Parser.parse_string steering with
    | Ok d -> d
    | Error e -> failwith ("steering graph: " ^ e)
  in
  let id name = Option.get (Lognic_dsl.Parser.vertex_id doc name) in
  let hw = Option.get doc.Lognic_dsl.Parser.hardware in
  let traffic = Option.get doc.Lognic_dsl.Parser.traffic in
  let solution, wall =
    Harness.time (fun () ->
        O.optimize ~jobs:1 doc.Lognic_dsl.Parser.graph ~hw ~traffic
          ~knobs:[ O.Out_split (id "sched"); O.Queue_capacity (id "a2", 1, 16) ]
          O.Minimize_latency)
  in
  let stats = solution.O.stats in
  let evaluations = float_of_int stats.O.evaluations in
  [
    ( "estimate.run_us",
      "us",
      us (fun () -> ignore (Lognic.Estimate.run W.md5_graph ~hw:W.md5_hw ~traffic:md5)) );
    ( "estimate.run_mix_us",
      "us",
      us (fun () ->
          ignore (Lognic.Estimate.run_mix nvme ~hw:Lognic_devices.Stingray.hardware ~mix)) );
    ("optimizer.us_per_candidate", "us", wall /. evaluations *. 1e6);
    ( "optimizer.memo_hit_ratio",
      "ratio",
      float_of_int stats.O.memo_hits /. evaluations );
  ]

(* Per-figure render times, taken inside the figures-quick parallel
   render, and the pool's efficiency: the summed per-figure time over
   jobs x wall. -> wall_s@figures-quick *)
let figures ~seed:_ : row list =
  let rendered, wall =
    Harness.time (fun () -> W.render_all ~jobs:W.figure_jobs W.figure_ids)
  in
  Harness.check "every figure rendered" (List.for_all (fun r -> r.W.ok) rendered);
  let busy = List.fold_left (fun acc r -> acc +. r.W.seconds) 0. rendered in
  List.map (fun r -> (Printf.sprintf "figures.%s_s" r.W.id, "s", r.W.seconds)) rendered
  @ [ ("parallel.efficiency", "ratio", busy /. (float_of_int W.figure_jobs *. wall)) ]

let probes =
  [
    ("engine", engine);
    ("event_queue", event_queue);
    ("profile", profile);
    ("ip_node", ip_node);
    ("medium", medium);
    ("optional_layers", optional_layers);
    ("allocation_deltas", allocation_deltas);
    ("flow_cache", flow_cache);
    ("flowcache_model", flowcache_model);
    ("md5_agreement", md5_agreement);
    ("analytic", analytic);
    ("figures", figures);
  ]

let run ~seed =
  List.concat_map
    (fun (name, probe) -> Harness.span ("probe." ^ name) (fun () -> probe ~seed))
    probes
