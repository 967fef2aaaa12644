module G = Lognic.Graph
module N = Lognic_numerics

type config = {
  seed : int;
  duration : float;
  warmup : float;
  service_dist : Ip_node.service_dist;
  arrival : Traffic_gen.arrival;
  sample_interval : float option;
  series_capacity : int;
  trace : Trace.config option;
  check_invariants : bool;
  metrics : Metrics.config option;
  tenants : Tenant.set option;
  flow_cache : Lognic.Flowcache.spec option;
}

(* The builder is the only way to assemble or update a config: the
   record is [private] outside this module, so every construction path
   goes through [Config.default] and the setters. Setters take the
   config last so they chain: [Config.(default |> with_seed 7 |> ...)]. *)
module Config = struct
  type t = config

  let default =
    {
      seed = 1;
      duration = 0.1;
      warmup = 0.01;
      service_dist = Ip_node.Exponential;
      arrival = Traffic_gen.Poisson;
      sample_interval = None;
      series_capacity = 4096;
      trace = None;
      check_invariants = false;
      metrics = None;
      tenants = None;
      flow_cache = None;
    }

  let with_seed seed c = { c with seed }
  let with_duration duration c = { c with duration }
  let with_warmup warmup c = { c with warmup }

  let with_horizon ?warmup duration c =
    let warmup = match warmup with Some w -> w | None -> duration /. 10. in
    { c with duration; warmup }

  let with_service_dist service_dist c = { c with service_dist }
  let with_arrival arrival c = { c with arrival }
  let with_sampling ?(capacity = default.series_capacity) interval c =
    { c with sample_interval = Some interval; series_capacity = capacity }
  let with_trace trace c = { c with trace = Some trace }
  let with_invariants check_invariants c = { c with check_invariants }
  let with_metrics metrics c = { c with metrics = Some metrics }
  let with_tenants tenants c = { c with tenants = Some tenants }
  let without_tenants c = { c with tenants = None }
  let with_flow_cache spec c = { c with flow_cache = Some spec }
  let without_flow_cache c = { c with flow_cache = None }
end

module Run = struct
  type t = {
    graph : G.t;
    hw : Lognic.Params.hardware;
    mix : Lognic.Traffic.mix;
    config : config;
    faults : Faults.plan;
  }

  let make ?(config = Config.default) ?(faults = Faults.empty) graph ~hw ~mix =
    { graph; hw; mix; config; faults }

  let single ?config ?faults graph ~hw ~traffic =
    make ?config ?faults graph ~hw ~mix:[ (traffic, 1.) ]

  let with_config t config = { t with config }
  let with_faults t faults = { t with faults }
end

type vertex_stats = {
  vid : G.vertex_id;
  vlabel : string;
  drops : int;
  queue_drops : int array;
  completions : int;
  utilization : float;
}

type medium_stats = {
  mlabel : string;
  m_utilization : float;
  m_busy : float;
  m_rejections : int;
}

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

type measurement = {
  summary : Telemetry.summary;
  vertex_stats : vertex_stats list;
  medium_stats : medium_stats list;
  drop_breakdown : (Telemetry.drop_site * int) list;
  series : Telemetry.Series.t list;
  interface_utilization : float;
  memory_utilization : float;
  generated : int;
  fault_intervals : interval_stats list;
  resilience : resilience option;
  trace : Trace.t option;
  invariants : Invariants.report option;
  metrics : Metrics.t option;
  tenants : Tenant.stats option;
  flow_cache : Flow_cache.stats option;
}

(* An interned drop counter plus its rendered site name, resolved once
   at setup so the per-drop path neither hashes a site value nor
   formats a string. *)
type dropper = { dk : Telemetry.counter; d_name : string }

(* Dense per-edge runtime row: everything a packet hop reads, one array
   load away. [e_pe] is the edge's reach probability under the
   delta-proportional routing (scales per-packet bytes so aggregate
   medium loads match the model's W-fractions). *)
type edge_rt = {
  e_dst : G.vertex_id;
  e_delta : float;
  e_alpha : float;
  e_beta : float;
  e_pe : float;
  e_link : Medium.t option;
  e_link_drop : dropper;  (* meaningful only when [e_link] is [Some] *)
}

(* Dense per-vertex runtime row, indexed by the (dense) vertex id. *)
type vertex_rt = {
  v_label : string;
  v_is_egress : bool;
  v_work_factor : float;  (* size multiplier: inflow / p(v) *)
  v_overhead : float;
  v_cap_limit : float;
      (* in-system bound for the queue-capacity invariant: the
         configured capacity for single-queue nodes, and
         queues × capacity + engines under the tenanted multiqueue
         convention (waiting-only per-queue capacity) *)
  v_node : Ip_node.t option;
  v_drop : dropper;  (* meaningful only when [v_node] is [Some] *)
  v_out : int array;  (* edge_rt indices, in {!G.out_edges} order *)
  v_out_total : float;  (* sum of out-edge deltas, in the same order *)
}

(* A pooled in-flight packet: the latency ledger lives in the [fs]
   float array ({!Telemetry.flight_slots} layout, unboxed stores), and
   each continuation of the walk is a per-flight closure built once
   when the flight is first allocated. Finished flights chain through
   [fl_next] onto a free list ([fl_self] is the pre-built [Some] link,
   so releasing allocates nothing), and steady state recycles them:
   after warm-up the walk of a packet allocates no flight state at
   all. *)
type flight = {
  fs : float array;
  mutable fl_id : int;
  mutable fl_klass : int;
  mutable fl_tenant : int;  (* owning tenant id; 0 when untenanted *)
  mutable fl_flow : int;  (* flow id; meaningful only with a flow cache *)
  mutable fl_fclass : int;  (* hot/warm/cold (0..2); -1 = unclassified *)
  mutable fl_vertex : G.vertex_id;  (* vertex being visited *)
  mutable fl_edge : int;  (* edge_rt index being traversed *)
  mutable fl_tr : Trace.record option;
  mutable fl_next : flight option;  (* free-list link *)
  mutable fl_self : flight option;  (* [Some self], built once *)
  fl_tally : float array option;  (* [Some fs], built once *)
  fl_on_served : unit -> unit;
  fl_continue : unit -> unit;
  fl_via_memory : unit -> unit;
  fl_via_link : unit -> unit;
  fl_arrive : unit -> unit;
  mutable fl_span_node :
    (lane:int -> queued:float -> service:float -> unit) option;
  mutable fl_span_medium :
    (label:string -> queued:float -> wire:float -> unit) option;
  (* the built sinks, installed into the two active fields only for
     sampled packets — see the per-packet installation site *)
  mutable fl_span_node_on :
    (lane:int -> queued:float -> service:float -> unit) option;
  mutable fl_span_medium_on :
    (label:string -> queued:float -> wire:float -> unit) option;
}

(* Probability that a packet's walk crosses each vertex/edge, from the
   delta-proportional routing; needed to scale per-packet quantities so
   aggregate loads match the model's W-fractions. *)
let reach_probabilities g =
  let p_vertex = Hashtbl.create 16 in
  let p_edge = Hashtbl.create 16 in
  let ingresses = G.ingress_vertices g in
  let ingress_share = 1. /. float_of_int (List.length ingresses) in
  List.iter (fun (v : G.vertex) -> Hashtbl.replace p_vertex v.id ingress_share) ingresses;
  let order =
    match G.topological_order g with
    | Some o -> o
    | None -> invalid_arg "Netsim: graph has a cycle"
  in
  List.iter
    (fun id ->
      let p = Option.value (Hashtbl.find_opt p_vertex id) ~default:0. in
      let outs = G.out_edges g id in
      let total = List.fold_left (fun acc (e : G.edge) -> acc +. e.delta) 0. outs in
      if total > 0. then
        List.iter
          (fun (e : G.edge) ->
            let pe = p *. e.delta /. total in
            Hashtbl.replace p_edge (e.src, e.dst) pe;
            let prev = Option.value (Hashtbl.find_opt p_vertex e.dst) ~default:0. in
            Hashtbl.replace p_vertex e.dst (prev +. pe))
          outs)
    order;
  (p_vertex, p_edge)

let rec remove_first x = function
  | [] -> []
  | y :: rest -> if y = x then rest else y :: remove_first x rest

(* Sub-interval grid for fault-time accounting: the fault-plan edges
   refined with a uniform duration/64 grid, so recovery after the last
   fault clears is observable at finer resolution than the plan's own
   boundaries. Only built when a plan is present. *)
let interval_boundaries ~duration fault_spans =
  let grid = List.init 64 (fun i -> float_of_int i *. duration /. 64.) in
  let edges = List.map (fun (a, _, _) -> a) fault_spans in
  Array.of_list (List.sort_uniq Float.compare (grid @ edges))

let execute_with ?engine:reused (spec : Run.t) =
  let g = spec.Run.graph in
  let hw = spec.Run.hw in
  let config = spec.Run.config in
  let faults = spec.Run.faults in
  (match G.validate g with
  | Ok () -> ()
  | Error errors ->
    invalid_arg ("Netsim.run: invalid graph: " ^ String.concat "; " errors));
  let have_faults = not (Faults.is_empty faults) in
  (* ---- tenants ------------------------------------------------------ *)
  let tenant_set = config.tenants in
  let ntenants =
    match tenant_set with None -> 0 | Some s -> Tenant.count s
  in
  (* A single tenant schedules exactly like an untenanted run — the
     hierarchical arbiter would be a one-group ring with one weight-1
     grant per packet — so tenanted node construction (and the tenant
     rng split below) switch on only at two tenants or more. That keeps
     single-tenant measurement JSON byte-identical to the untenanted
     baseline while still attributing every packet to the tenant. *)
  let tenanted_sched = ntenants >= 2 in
  let nclasses = max 1 (List.length spec.Run.mix) in
  (* queue-index stride for tenanted submission; 0 selects the
     untenanted queue-0 path (one int compare per arrival) *)
  let tenant_classes = if tenanted_sched then nclasses else 0 in
  (* The checker is allocated only on request; every hook below matches
     on it first, so the disabled path costs one pointer compare per
     hook site (the ledger's [layer.invariants.cost] tracks it). *)
  let checker = if config.check_invariants then Some (Invariants.create ()) else None in
  (* A reused engine is reset, which keeps its event-queue arrays warm:
     replicated runs stop paying queue (re)allocation per run, and the
     calendar queue pops in exact (time, seq) order regardless of its
     inherited bucket geometry, so reuse is result-identical. *)
  let engine =
    match reused with
    | Some e ->
      Engine.reset e;
      e
    | None -> Engine.create ()
  in
  let rng = N.Rng.create ~seed:config.seed in
  let gen_rng = N.Rng.split rng in
  let route_rng = N.Rng.split rng in
  let telemetry = Telemetry.create ~warmup:config.warmup in
  let p_vertex, p_edge = reach_probabilities g in
  let prob_vertex id = Option.value (Hashtbl.find_opt p_vertex id) ~default:0. in
  let prob_edge e = Option.value (Hashtbl.find_opt p_edge e) ~default:0. in
  let interface =
    Medium.create engine ~label:"interface"
      ~bandwidth:hw.Lognic.Params.bw_interface ()
  in
  let memory =
    Medium.create engine ~label:"memory" ~bandwidth:hw.Lognic.Params.bw_memory ()
  in
  let links = Hashtbl.create 8 in
  List.iter
    (fun (e : G.edge) ->
      match e.bandwidth with
      | Some bw ->
        Hashtbl.replace links (e.src, e.dst)
          (Medium.create engine
             ~label:(Printf.sprintf "link-%d-%d" e.src e.dst)
             ~bandwidth:bw ())
      | None -> ())
    (G.edges g);
  let tracing = config.trace <> None in
  let nodes = Hashtbl.create 16 in
  List.iter
    (fun (v : G.vertex) ->
      if v.service.throughput < infinity then begin
        let d = v.service.parallelism in
        let aggregate =
          v.service.partition *. v.service.accel *. v.service.throughput
        in
        let node =
          match tenant_set with
          | Some tset when tenanted_sched ->
            (* One queue group per tenant/VF, one queue per traffic
               class within it — the SR-IOV two-stage arbiter. *)
            Ip_node.create_hierarchical ~track_lanes:tracing engine
              ~rng:(N.Rng.split rng) ~label:v.label ~engines:d
              ~rate_per_engine:(aggregate /. float_of_int d)
              ~entries_per_queue:v.service.queue_capacity
              ~group_weights:(Tenant.weights tset)
              ~class_weights:(Tenant.class_weight_rows tset ~classes:nclasses)
              ~service_dist:config.service_dist
          | _ ->
            Ip_node.create ~track_lanes:tracing engine ~rng:(N.Rng.split rng)
              ~label:v.label ~engines:d
              ~rate_per_engine:(aggregate /. float_of_int d)
              ~queue_capacity:v.service.queue_capacity
              ~service_dist:config.service_dist
        in
        Hashtbl.replace nodes v.id node
      end)
    (G.vertices g);
  (* The fault rng is split only when a plan is present, after the
     per-node rngs and before the trace rng: an empty plan leaves every
     stream exactly where the pre-fault code put it (byte-identical
     runs), and a non-empty plan perturbs at most which packets the
     trace reservoir samples — never a measured quantity. *)
  let faults_rng = if have_faults then Some (N.Rng.split rng) else None in
  (* The tenant rng follows the same discipline as the fault rng: split
     only when arrivals actually need a tenant draw (>= 2 tenants), so
     untenanted and single-tenant runs leave every stream exactly where
     the pre-tenant code put it. Split before the trace rng, which must
     stay last. *)
  let tenant_rng = if tenanted_sched then Some (N.Rng.split rng) else None in
  (* The accumulator exists whenever tenants are configured — a
     single-tenant run still reports per-tenant stats — and its pooled
     arrays make every record a plain store (nothing per-tenant on the
     hot path). *)
  let tenant_acc =
    match tenant_set with
    | None -> None
    | Some tset -> Some (Tenant.acc tset ~warmup:config.warmup)
  in
  let draw_tenant =
    match (tenant_rng, tenant_set) with
    | Some trng, Some tset ->
      (* bits draw + integer-lattice search: the whole per-arrival
         tenant decision allocates nothing *)
      fun () -> Tenant.index_of_bits tset (N.Rng.bits trng)
    | _ -> fun () -> 0
  in
  (* ---- flow cache --------------------------------------------------- *)
  (* The flow rng follows the fault/tenant discipline: split only when
     the flow cache is enabled, after the tenant rng and before the
     trace rng (which must stay last) — so flow-cache-off runs leave
     every stream exactly where the pre-flow-cache code put it
     (byte-identical measurements, held by the [flowcache_off_identity]
     property), and enabled runs draw flow ids from their
     own stream, bit-identical at any --jobs. *)
  let flow_state =
    Option.map
      (fun spec -> Flow_cache.create ~spec ~warmup:config.warmup)
      config.flow_cache
  in
  let flow_rng =
    match flow_state with Some _ -> Some (N.Rng.split rng) | None -> None
  in
  (* Role of each vertex under state-dependent routing: 1 = EMC,
     2 = megaflow, 0 = ordinary delta-proportional routing. Cache
     vertices are resolved by label and must offer exactly the
     hit/miss out-edge pair (first out-edge added = hit route). *)
  let fc_role =
    let roles = Array.make (G.vertex_count g) 0 in
    (match config.flow_cache with
    | None -> ()
    | Some spec ->
      let resolve role label =
        match
          List.find_opt
            (fun (v : G.vertex) -> v.label = label)
            (G.vertices g)
        with
        | None ->
          invalid_arg
            (Printf.sprintf "Netsim.run: flow cache needs a vertex %S" label)
        | Some v ->
          let outs = List.length (G.out_edges g v.id) in
          if outs <> 2 then
            invalid_arg
              (Printf.sprintf
                 "Netsim.run: flow-cache vertex %S needs exactly 2 out-edges \
                  (hit, miss), has %d"
                 label outs);
          roles.(v.id) <- role
      in
      resolve 1 spec.Lognic.Flowcache.emc_label;
      resolve 2 spec.Lognic.Flowcache.megaflow_label);
    roles
  in
  (* The trace rng is split last — after every stream the untraced run
     splits — and only when tracing is on, so enabling tracing perturbs
     no other stochastic stream and measurements stay bit-identical. *)
  let trace =
    Option.map
      (fun tc -> Trace.create ~config:tc ~rng:(N.Rng.split rng) ())
      config.trace
  in
  (* Media in deterministic report order: the two shared media first,
     then dedicated links in edge order. *)
  let media =
    (interface :: memory :: [])
    @ List.filter_map
        (fun (e : G.edge) -> Hashtbl.find_opt links (e.src, e.dst))
        (G.edges g)
  in
  (* ---- fault realization ------------------------------------------- *)
  let burst_p = ref 0. in
  let fault_spans =
    if have_faults then Faults.intervals ~duration:config.duration faults
    else []
  in
  let boundaries =
    if have_faults then interval_boundaries ~duration:config.duration fault_spans
    else [||]
  in
  let nbins = Array.length boundaries in
  let bin_offered = Array.make (max 1 nbins) 0 in
  let bin_delivered = Array.make (max 1 nbins) 0 in
  let bin_dropped = Array.make (max 1 nbins) 0 in
  let bin_bytes = Array.make (max 1 nbins) 0. in
  let bin_latency = Array.make (max 1 nbins) 0. in
  let bin_of t =
    let lo = ref 0 and hi = ref (nbins - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if boundaries.(mid) <= t then lo := mid else hi := mid - 1
    done;
    !lo
  in
  if have_faults then begin
    let node_by_label = Hashtbl.create 8 in
    Hashtbl.iter
      (fun _ node -> Hashtbl.replace node_by_label (Ip_node.label node) node)
      nodes;
    let node_of vertex =
      match Hashtbl.find_opt node_by_label vertex with
      | Some node -> node
      | None ->
        invalid_arg
          (Printf.sprintf
             "Netsim: fault targets unknown or infinite-throughput vertex %S"
             vertex)
    in
    let medium_of label =
      match List.find_opt (fun m -> Medium.label m = label) media with
      | Some m -> m
      | None ->
        invalid_arg (Printf.sprintf "Netsim: fault targets unknown medium %S" label)
    in
    (* Validate every target up front so a bad plan fails before the
       simulation starts, not at the event's fire time. *)
    List.iter
      (fun (ev : Faults.event) ->
        match ev.fault with
        | Faults.Engine_down { vertex; _ } | Faults.Queue_shrunk { vertex; _ } ->
          ignore (node_of vertex)
        | Faults.Medium_degraded { medium; _ } -> ignore (medium_of medium)
        | Faults.Drop_burst _ -> ())
      faults;
    (* Overlapping faults compose; each target keeps its active
       contributions in activation order and the effective value is
       recomputed from that list on every change, so apply/revert
       sequences are deterministic and leave no floating-point residue
       once all faults clear. *)
    let down = Hashtbl.create 4 in
    let factors = Hashtbl.create 4 in
    let caps = Hashtbl.create 4 in
    let bursts = ref [] in
    let active key table = Option.value (Hashtbl.find_opt table key) ~default:[] in
    let set_down vertex delta =
      let node = node_of vertex in
      let total = List.fold_left ( + ) 0 delta in
      Hashtbl.replace down vertex delta;
      Ip_node.set_offline node (min (Ip_node.engines node) total)
    in
    let set_factor medium fs =
      Hashtbl.replace factors medium fs;
      Medium.set_scale (medium_of medium) (List.fold_left ( *. ) 1. fs)
    in
    let set_cap vertex cs =
      Hashtbl.replace caps vertex cs;
      Ip_node.set_capacity_override (node_of vertex)
        (match cs with [] -> None | cs -> Some (List.fold_left min max_int cs))
    in
    let set_bursts ps =
      bursts := ps;
      burst_p := 1. -. List.fold_left (fun acc p -> acc *. (1. -. p)) 1. ps
    in
    let apply (ev : Faults.event) () =
      match ev.fault with
      | Faults.Engine_down { vertex; engines } ->
        set_down vertex (active vertex down @ [ engines ])
      | Faults.Medium_degraded { medium; factor } ->
        set_factor medium (active medium factors @ [ factor ])
      | Faults.Queue_shrunk { vertex; capacity } ->
        set_cap vertex (active vertex caps @ [ capacity ])
      | Faults.Drop_burst { probability } -> set_bursts (!bursts @ [ probability ])
    in
    let revert (ev : Faults.event) () =
      match ev.fault with
      | Faults.Engine_down { vertex; engines } ->
        set_down vertex (remove_first engines (active vertex down))
      | Faults.Medium_degraded { medium; factor } ->
        set_factor medium (remove_first factor (active medium factors))
      | Faults.Queue_shrunk { vertex; capacity } ->
        set_cap vertex (remove_first capacity (active vertex caps))
      | Faults.Drop_burst { probability } ->
        set_bursts (remove_first probability !bursts)
    in
    List.iter
      (fun (ev : Faults.event) ->
        if ev.start < config.duration then begin
          Engine.schedule engine ~at:ev.start (apply ev);
          if ev.stop < config.duration then
            Engine.schedule engine ~at:ev.stop (revert ev)
        end)
      faults
  end;
  (* ---- dense runtime tables ---------------------------------------- *)
  let dropper site =
    {
      dk = Telemetry.drop_counter telemetry site;
      d_name = Telemetry.drop_site_name site;
    }
  in
  let interface_drop = dropper (Telemetry.Medium_buffer "interface") in
  let memory_drop = dropper (Telemetry.Medium_buffer "memory") in
  let burst_drop = dropper Telemetry.Fault_burst in
  let edge_list = G.edges g in
  let edge_index = Hashtbl.create 16 in
  List.iteri
    (fun i (e : G.edge) -> Hashtbl.replace edge_index (e.src, e.dst) i)
    edge_list;
  let ert =
    Array.of_list
      (List.map
         (fun (e : G.edge) ->
           let link = Hashtbl.find_opt links (e.src, e.dst) in
           {
             e_dst = e.dst;
             e_delta = e.delta;
             e_alpha = e.alpha;
             e_beta = e.beta;
             e_pe = prob_edge (e.src, e.dst);
             e_link = link;
             e_link_drop =
               (match link with
               | Some l -> dropper (Telemetry.Medium_buffer (Medium.label l))
               | None -> interface_drop);
           })
         edge_list)
  in
  (* Per-vertex processing-work multiplier: size * inflow / p(v). *)
  let work_factor id =
    let p = prob_vertex id in
    if p <= 0. then 0. else Lognic.Throughput.vertex_inflow g id /. p
  in
  let vrt =
    Array.init (G.vertex_count g) (fun id ->
        let v = G.vertex g id in
        let outs = G.out_edges g id in
        {
          v_label = v.label;
          v_is_egress = v.kind = G.Egress;
          v_work_factor = work_factor id;
          v_overhead = v.service.overhead;
          v_cap_limit =
            (let cap = v.service.queue_capacity in
             if tenanted_sched && Hashtbl.mem nodes id then
               float_of_int
                 ((ntenants * nclasses * cap) + v.service.parallelism)
             else float_of_int cap);
          v_node = Hashtbl.find_opt nodes id;
          v_drop =
            (if Hashtbl.mem nodes id then
               dropper (Telemetry.Node_queue { node = v.label; queue = 0 })
             else interface_drop);
          v_out =
            Array.of_list
              (List.map
                 (fun (e : G.edge) -> Hashtbl.find edge_index (e.src, e.dst))
                 outs);
          v_out_total =
            List.fold_left (fun acc (e : G.edge) -> acc +. e.delta) 0. outs;
        })
  in
  (* Media admission invariant: right after a successful transfer the
     backlog must still fit the buffer. Skipped on faulted runs: a
     bandwidth restore mid-backlog legitimately re-values the queued
     bytes at the healthy rate, which can exceed the byte limit the
     degraded admission enforced. *)
  let check_medium =
    match checker with
    | Some inv when not have_faults ->
      fun m ->
        Invariants.check_bound inv ~law:"medium-buffer"
          ~entity:(Medium.label m) ~time:(Engine.now engine)
          ~limit:(Medium.buffer m) ~actual:(Medium.backlog m)
          "admitted backlog must fit the rate-matching buffer"
    | Some _ | None -> fun _ -> ()
  in
  (* ---- live metrics ------------------------------------------------ *)
  (* The metrics registry is built entirely from read-only probes over
     state the simulator already maintains, splits no rng stream, and
     its ticks are extra scheduled events — which shift absolute event
     sequence numbers but never the relative pop order of packet events
     (the same argument as the series sampler). Enabling metrics
     therefore never changes simulation results or measurement JSON
     (held by the [metrics] test "netsim: metrics on/off bit-identical").
     Instruments register in deterministic order: the run entity, drop
     sites in interning order, nodes in graph order, then media in report
     order. *)
  let metrics, metrics_hist =
    match config.metrics with
    | None -> (None, None)
    | Some mc ->
      let m = Metrics.create mc in
      Metrics.register m ~entity:"run" ~name:"offered" Metrics.Counter
        (fun () -> float_of_int (Telemetry.offered telemetry));
      Metrics.register m ~entity:"run" ~name:"delivered" Metrics.Counter
        (fun () -> float_of_int (Telemetry.delivered telemetry));
      Metrics.register m ~entity:"run" ~name:"dropped" Metrics.Counter
        (fun () -> float_of_int (Telemetry.dropped telemetry));
      Metrics.register m ~entity:"run" ~name:"delivered_bytes" Metrics.Counter
        (fun () -> Telemetry.delivered_bytes telemetry);
      (* The latency histogram is the one new hot-path instrument; its
         observe is allocation-free and windowed like the summary. Each
         tick synthesizes latency_p50 / latency_p99 for SLO rules. *)
      let hist = Metrics.histogram m ~entity:"run" ~name:"latency" () in
      (* Warmup-windowed drops per site, one entity per interned drop
         counter (every site was interned during setup above). *)
      List.iter
        (fun c ->
          Metrics.register m
            ~entity:(Telemetry.drop_site_name (Telemetry.counter_site c))
            ~name:"drops" Metrics.Counter
            (fun () -> float_of_int (Telemetry.counter_hits c)))
        (Telemetry.counters telemetry);
      List.iter
        (fun (v : G.vertex) ->
          match Hashtbl.find_opt nodes v.id with
          | None -> ()
          | Some node ->
            let entity = v.label in
            Metrics.register m ~entity ~name:"completions" Metrics.Counter
              (fun () -> float_of_int (Ip_node.completions node));
            Metrics.register m ~entity ~name:"drops" Metrics.Counter
              (fun () -> float_of_int (Ip_node.drops node));
            Metrics.register m ~entity ~name:"queue_depth" Metrics.Gauge
              (fun () -> float_of_int (Ip_node.in_system node));
            Metrics.register m ~entity ~name:"busy_engines" Metrics.Gauge
              (fun () -> float_of_int (Ip_node.busy_engines node));
            let nameplate = float_of_int (Ip_node.engines node) in
            (* cumulative busy-engine seconds over the nameplate count:
               as a [Rate], delta/interval is the interval utilization *)
            Metrics.register m ~entity ~name:"utilization" Metrics.Rate
              (fun () ->
                Ip_node.busy_within node ~until:(Engine.now engine)
                /. nameplate))
        (G.vertices g);
      List.iter
        (fun md ->
          let entity = Medium.label md in
          Metrics.register m ~entity ~name:"transfers" Metrics.Counter
            (fun () -> float_of_int (Medium.transfers md));
          Metrics.register m ~entity ~name:"rejections" Metrics.Counter
            (fun () -> float_of_int (Medium.rejections md));
          Metrics.register m ~entity ~name:"backlog_bytes" Metrics.Gauge
            (fun () -> Medium.backlog md);
          Metrics.register m ~entity ~name:"utilization" Metrics.Rate
            (fun () -> Medium.busy_within md ~until:(Engine.now engine)))
        media;
      (* Live fairness gauges over the tenant population; registered
         after every per-entity instrument so untenanted runs keep
         their historical instrument order (and NDJSON fixtures). *)
      (match tenant_acc with
      | None -> ()
      | Some a ->
        let fairness () = Tenant.live_fairness a ~horizon:(Engine.now engine) in
        Metrics.register m ~entity:"tenants" ~name:"maxmin_share" Metrics.Gauge
          (fun () -> (fairness ()).Tenant.maxmin_ratio);
        Metrics.register m ~entity:"tenants" ~name:"jain" Metrics.Gauge
          (fun () -> (fairness ()).Tenant.jain);
        Metrics.register m ~entity:"tenants" ~name:"interference" Metrics.Gauge
          (fun () -> (fairness ()).Tenant.interference));
      (* Attach the optional self-profiler to every phase source; it
         reads only the host's wall clock, never the simulation. *)
      (match Metrics.profiler m with
      | Some _ as p ->
        Hashtbl.iter (fun _ node -> Ip_node.set_profile node p) nodes;
        List.iter (fun md -> Medium.set_profile md p) media
      | None -> ());
      (* Tick scheduler on the same multiplicative time grid as the
         series sampler, so rounding never drops the final snapshot. *)
      let dt = mc.Metrics.interval in
      let time_of i = float_of_int i *. dt in
      let rec tick i =
        ignore (Metrics.tick m ~now:(time_of i));
        if time_of (i + 1) <= config.duration then
          Engine.schedule engine ~at:(time_of (i + 1)) (fun () -> tick (i + 1))
      in
      if dt <= config.duration then
        Engine.schedule engine ~at:dt (fun () -> tick 1)
      else
        (* Mirror the series sampler: an interval beyond the horizon
           still produces one end-of-run snapshot. *)
        Engine.schedule engine ~at:config.duration (fun () ->
            ignore (Metrics.tick m ~now:config.duration));
      (Some m, Some hist)
  in
  (* ---- the packet walk --------------------------------------------- *)
  (* Scratch cells for the routing scan: unboxed accumulator and index,
     so choosing an out-edge allocates nothing beyond the rng draw. The
     scan never calls out, so the cells cannot be clobbered reentrantly. *)
  let route_acc = Array.make 1 0. in
  let route_i = Array.make 1 0 in
  let free_flights = ref None in
  let rec arrive_f fl =
    let vr = vrt.(fl.fl_vertex) in
    match vr.v_node with
    | None -> serve_f fl
    | Some node ->
      let work = fl.fs.(Telemetry.slot_size) *. vr.v_work_factor in
      if
        (if tenant_classes = 0 then
           Ip_node.submit node ?span:fl.fl_span_node ?tally:fl.fl_tally ~work
             fl.fl_on_served
         else
           Ip_node.submit_at node ?tally:fl.fl_tally ?span:fl.fl_span_node
             ~queue:((fl.fl_tenant * tenant_classes) + fl.fl_klass)
             ~work fl.fl_on_served)
      then begin
        match checker with
        | Some inv ->
          (* Post-admission state bounds. [submit] may have run the
             whole downstream walk synchronously (zero-work fast path),
             but both bounds hold at every instant, so checking after
             it returns is still sound. (The flight may already be
             recycled here — only the node is consulted.) *)
          let time = Engine.now engine in
          Invariants.check_bound inv ~law:"queue-capacity" ~entity:vr.v_label
            ~time ~limit:vr.v_cap_limit
            ~actual:(float_of_int (Ip_node.in_system node))
            "in-system requests must not exceed the queue capacity";
          Invariants.check_bound inv ~law:"engine-count" ~entity:vr.v_label
            ~time
            ~limit:(float_of_int (Ip_node.engines node))
            ~actual:(float_of_int (Ip_node.busy_engines node))
            "busy engines must not exceed the configured engine count"
        | None -> ()
      end
      else drop_flight fl vr.v_drop
  and serve_f fl =
    let vr = vrt.(fl.fl_vertex) in
    if vr.v_is_egress then begin
      (match checker with
      | Some inv ->
        let now = Engine.now engine in
        Invariants.packet_delivered inv ~id:fl.fl_id ~time:now;
        (* Eq. 2 tiling: the four tallied components must account for
           this packet's entire end-to-end latency. Each hop adds its
           pieces from the same event times that advance the clock, so
           only float rounding separates the two sides. *)
        Invariants.check_close inv ~law:"latency-tiling"
          ~entity:(Printf.sprintf "packet-%d" fl.fl_id) ~time:now ~tol:1e-9
          ~expected:(now -. fl.fs.(Telemetry.slot_born))
          ~actual:
            (fl.fs.(Telemetry.slot_queueing)
            +. fl.fs.(Telemetry.slot_service)
            +. fl.fs.(Telemetry.slot_wire)
            +. fl.fs.(Telemetry.slot_overhead))
          "queueing + service + wire + overhead must equal birth-to-egress time"
      | None -> ());
      (match fl.fl_tr with
      | Some r -> Trace.deliver r ~time:(Engine.now engine)
      | None -> ());
      if have_faults then begin
        let b = bin_of fl.fs.(Telemetry.slot_born) in
        bin_delivered.(b) <- bin_delivered.(b) + 1;
        bin_bytes.(b) <- bin_bytes.(b) +. fl.fs.(Telemetry.slot_size);
        bin_latency.(b) <-
          bin_latency.(b) +. (Engine.now engine -. fl.fs.(Telemetry.slot_born))
      end;
      fl.fs.(Telemetry.slot_now) <- Engine.now engine;
      (* Live-metrics latency histogram, windowed by birth like the
         summary; [observe] is allocation-free and reads nothing back,
         so the disabled path is one pointer compare. *)
      (match metrics_hist with
      | Some h ->
        (* slot_now was stamped with the engine clock just above;
           observe_span keeps the hot path allocation-free *)
        if fl.fs.(Telemetry.slot_born) >= config.warmup then
          Metrics.observe_span h fl.fs ~from_slot:Telemetry.slot_born
            ~to_slot:Telemetry.slot_now
      | None -> ());
      Telemetry.record_completion_fs telemetry ~fs:fl.fs ~klass:fl.fl_klass;
      (match tenant_acc with
      | Some a -> Tenant.record_completion a ~tenant:fl.fl_tenant ~fs:fl.fs
      | None -> ());
      (match flow_state with
      | Some st -> Flow_cache.record_completion st ~klass:fl.fl_fclass ~fs:fl.fs
      | None -> ());
      release_flight fl
    end
    else if vr.v_out_total <= 0. then
      (* Dead end without egress: validation rejects IPs like this, so
         only an ingress with zero-delta out-edges can reach here. *)
      release_flight fl
    else begin
      (match flow_state with
      | Some st when fc_role.(fl.fl_vertex) <> 0 ->
        (* State-dependent split: the route out of a cache vertex is
           decided by an actual lookup on this packet's flow, not by
           the static deltas (hit = first out-edge, miss = second).
           The route rng is not consumed here, so its stream stays
           aligned across runs that only differ in cache geometry. *)
        let now = Engine.now engine in
        let hit =
          if fc_role.(fl.fl_vertex) = 1 then begin
            let h = Flow_cache.emc_lookup st ~now ~flow:fl.fl_flow in
            if h then fl.fl_fclass <- 0;
            h
          end
          else begin
            let h = Flow_cache.mega_lookup st ~now ~flow:fl.fl_flow in
            fl.fl_fclass <- (if h then 1 else 2);
            h
          end
        in
        fl.fl_edge <- vr.v_out.(if hit then 0 else 1)
      | _ ->
        (* Delta-proportional out-edge choice, same draw and the same
           accumulation order as the historical list walk. No draw can
           fall off the end of the cumulative table, by two independent
           protections: [target < v_out_total] and the scan's running
           sum add the per-edge deltas in the same left-to-right order,
           so the final partial sum equals [v_out_total] bit-for-bit
           even for pathological vectors like [1e-300; 1e-300; 1.0];
           and the [route_i.(0) < n - 1] bound clamps the index
           regardless, so the last branch absorbs any residual
           probability mass. *)
        let target = N.Rng.float route_rng vr.v_out_total in
        let outs = vr.v_out in
        let n = Array.length outs in
        route_acc.(0) <- 0.;
        route_i.(0) <- 0;
        while
          route_i.(0) < n - 1
          && (let acc = route_acc.(0) +. ert.(outs.(route_i.(0))).e_delta in
              route_acc.(0) <- acc;
              target >= acc)
        do
          route_i.(0) <- route_i.(0) + 1
        done;
        fl.fl_edge <- outs.(route_i.(0)));
      if vr.v_overhead > 0. then begin
        fl.fs.(Telemetry.slot_overhead) <-
          fl.fs.(Telemetry.slot_overhead) +. vr.v_overhead;
        (match fl.fl_tr with
        | Some r ->
          Trace.add_span r ~entity:vr.v_label ~lane:0 ~phase:Trace.Overhead
            ~start:(Engine.now engine) ~duration:vr.v_overhead
        | None -> ());
        Engine.schedule_after engine ~delay:vr.v_overhead fl.fl_continue
      end
      else traverse_f fl
    end
  and traverse_f fl =
    let er = ert.(fl.fl_edge) in
    let bytes =
      if er.e_pe <= 0. then 0.
      else fl.fs.(Telemetry.slot_size) *. er.e_alpha /. er.e_pe
    in
    if
      Medium.transfer ?tally:fl.fl_tally ?span:fl.fl_span_medium interface
        ~bytes fl.fl_via_memory
    then check_medium interface
    else drop_flight fl interface_drop
  and via_memory_f fl =
    let er = ert.(fl.fl_edge) in
    let bytes =
      if er.e_pe <= 0. then 0.
      else fl.fs.(Telemetry.slot_size) *. er.e_beta /. er.e_pe
    in
    if
      Medium.transfer ?tally:fl.fl_tally ?span:fl.fl_span_medium memory ~bytes
        fl.fl_via_link
    then check_medium memory
    else drop_flight fl memory_drop
  and via_link_f fl =
    let er = ert.(fl.fl_edge) in
    match er.e_link with
    | Some link ->
      let bytes =
        if er.e_pe <= 0. then 0.
        else fl.fs.(Telemetry.slot_size) *. er.e_delta /. er.e_pe
      in
      if
        Medium.transfer ?tally:fl.fl_tally ?span:fl.fl_span_medium link ~bytes
          fl.fl_arrive
      then check_medium link
      else drop_flight fl er.e_link_drop
    | None -> arrive_dst_f fl
  and arrive_dst_f fl =
    fl.fl_vertex <- ert.(fl.fl_edge).e_dst;
    arrive_f fl
  and drop_flight fl d =
    (match checker with
    | Some inv ->
      Invariants.packet_dropped inv ~id:fl.fl_id ~time:(Engine.now engine)
    | None -> ());
    (match fl.fl_tr with
    | Some r -> Trace.drop r ~site:d.d_name ~time:(Engine.now engine)
    | None -> ());
    if have_faults then begin
      let b = bin_of fl.fs.(Telemetry.slot_born) in
      bin_dropped.(b) <- bin_dropped.(b) + 1
    end;
    Telemetry.record_drop_counted telemetry ~born:fl.fs.(Telemetry.slot_born)
      d.dk;
    (match tenant_acc with
    | Some a ->
      Tenant.record_drop a ~tenant:fl.fl_tenant
        ~born:fl.fs.(Telemetry.slot_born)
    | None -> ());
    release_flight fl
  and release_flight fl =
    fl.fl_tr <- None;
    fl.fl_next <- !free_flights;
    free_flights := fl.fl_self
  in
  let new_flight () =
    let fs = Array.make Telemetry.flight_slots 0. in
    let rec fl =
      {
        fs;
        fl_id = 0;
        fl_klass = 0;
        fl_tenant = 0;
        fl_flow = -1;
        fl_fclass = -1;
        fl_vertex = 0;
        fl_edge = 0;
        fl_tr = None;
        fl_next = None;
        fl_self = None;
        fl_tally = Some fs;
        fl_on_served = (fun () -> serve_f fl);
        fl_continue = (fun () -> traverse_f fl);
        fl_via_memory = (fun () -> via_memory_f fl);
        fl_via_link = (fun () -> via_link_f fl);
        fl_arrive = (fun () -> arrive_dst_f fl);
        fl_span_node = None;
        fl_span_medium = None;
        fl_span_node_on = None;
        fl_span_medium_on = None;
      }
    in
    fl.fl_self <- Some fl;
    if tracing then begin
      (* Tracing sinks are per-flight too, reading the flight's current
         trace record (None for unsampled packets). The node span fires
         at service start — while the flight is still parked at the
         serving vertex — so the queue span is the interval ending now
         and the service span the one starting now. Medium spans are
         reported at admission: backlog wait starts now, the wire slice
         follows it. *)
      fl.fl_span_node_on <-
        Some
          (fun ~lane ~queued ~service ->
            match fl.fl_tr with
            | None -> ()
            | Some r ->
              let start = Engine.now engine in
              let entity = vrt.(fl.fl_vertex).v_label in
              Trace.add_span r ~entity ~lane ~phase:Trace.Queue
                ~start:(start -. queued) ~duration:queued;
              Trace.add_span r ~entity ~lane ~phase:Trace.Service ~start
                ~duration:service);
      fl.fl_span_medium_on <-
        Some
          (fun ~label ~queued ~wire ->
            match fl.fl_tr with
            | None -> ()
            | Some r ->
              let now = Engine.now engine in
              Trace.add_span r ~entity:label ~lane:0 ~phase:Trace.Queue
                ~start:now ~duration:queued;
              Trace.add_span r ~entity:label ~lane:0 ~phase:Trace.Wire
                ~start:(now +. queued) ~duration:wire)
    end;
    fl
  in
  let acquire_flight () =
    match !free_flights with
    | Some fl ->
      free_flights := fl.fl_next;
      fl.fl_next <- None;
      fl
    | None -> new_flight ()
  in
  let ingresses = G.ingress_vertices g in
  let ingress_ids = Array.of_list (List.map (fun (v : G.vertex) -> v.id) ingresses) in
  let class_sizes =
    Array.of_list
      (List.map
         (fun ((c : Lognic.Traffic.t), _) -> c.Lognic.Traffic.packet_size)
         spec.Run.mix)
  in
  let next_id = ref 0 in
  let on_arrival klass =
    let now = Engine.now engine in
    let size = class_sizes.(klass) in
    let id = !next_id in
    next_id := id + 1;
    (match checker with
    | Some inv -> Invariants.packet_injected inv ~id ~time:now
    | None -> ());
    Telemetry.record_arrival telemetry ~now ~size;
    (* The tenant is drawn before the burst-shed check so even packets
       shed at ingress attribute their drop to an owner — per-tenant
       counts sum exactly to the aggregate telemetry accounts. *)
    let tid = draw_tenant () in
    (match tenant_acc with
    | Some a -> Tenant.record_offered a ~tenant:tid ~now ~size
    | None -> ());
    if have_faults then begin
      let b = bin_of now in
      bin_offered.(b) <- bin_offered.(b) + 1
    end;
    let tr =
      match trace with
      | None -> None
      | Some t -> Trace.on_packet t ~packet:id ~born:now ~size ~klass
    in
    (* An active drop burst sheds the packet at ingress. The draw comes
       from the dedicated fault rng, and only while a burst is active,
       so burst-free plans consume nothing from it. *)
    let shed =
      !burst_p > 0.
      &&
      match faults_rng with
      | Some frng -> N.Rng.float frng 1. < !burst_p
      | None -> false
    in
    if shed then begin
      (match checker with
      | Some inv -> Invariants.packet_dropped inv ~id ~time:now
      | None -> ());
      (match tr with
      | Some r -> Trace.drop r ~site:burst_drop.d_name ~time:now
      | None -> ());
      if have_faults then begin
        let b = bin_of now in
        bin_dropped.(b) <- bin_dropped.(b) + 1
      end;
      Telemetry.record_drop_counted telemetry ~born:now burst_drop.dk;
      (match tenant_acc with
      | Some a -> Tenant.record_drop a ~tenant:tid ~born:now
      | None -> ())
    end
    else begin
      let entry =
        if Array.length ingress_ids = 1 then ingress_ids.(0)
        else ingress_ids.(N.Rng.int route_rng (Array.length ingress_ids))
      in
      let fl = acquire_flight () in
      let fs = fl.fs in
      fs.(Telemetry.slot_queueing) <- 0.;
      fs.(Telemetry.slot_service) <- 0.;
      fs.(Telemetry.slot_wire) <- 0.;
      fs.(Telemetry.slot_overhead) <- 0.;
      fs.(Telemetry.slot_born) <- now;
      fs.(Telemetry.slot_size) <- size;
      fl.fl_id <- id;
      fl.fl_klass <- klass;
      fl.fl_tenant <- tid;
      (* The flow id comes from the dedicated flow rng — one bits draw
         through the Zipf alias table — and only for packets that enter
         the datapath, so burst-shed arrivals consume nothing from the
         stream. A packet that never reaches a cache vertex keeps
         class -1 (unclassified) and is skipped by the accumulator. *)
      (match flow_rng with
      | Some frng ->
        (match flow_state with
        | Some st ->
          fl.fl_flow <- Flow_cache.draw st ~bits:(N.Rng.bits frng);
          fl.fl_fclass <- -1
        | None -> ())
      | None -> ());
      fl.fl_vertex <- entry;
      fl.fl_tr <- tr;
      (* Install span sinks per packet: an unsampled flight carries
         [None], so the per-hop span calls in [Ip_node]/[Medium]
         short-circuit before boxing their float arguments — with a
         64-packet reservoir virtually every packet takes that path,
         which is what keeps the traced-run overhead inside its 5%
         budget. *)
      if tracing then begin
        match tr with
        | None ->
          fl.fl_span_node <- None;
          fl.fl_span_medium <- None
        | Some _ ->
          fl.fl_span_node <- fl.fl_span_node_on;
          fl.fl_span_medium <- fl.fl_span_medium_on
      end;
      arrive_f fl
    end
  in
  (* Periodic state sampling into ring-buffer series (read-only probes:
     enabling sampling never changes simulation results). *)
  let series =
    match config.sample_interval with
    | None -> []
    | Some dt ->
      if dt <= 0. then invalid_arg "Netsim.run: sample_interval must be > 0";
      let mk label probe =
        ( Telemetry.Series.create ~capacity:config.series_capacity ~label
            ~interval:dt (),
          probe )
      in
      let probes =
        List.concat_map
          (fun (v : G.vertex) ->
            match Hashtbl.find_opt nodes v.id with
            | None -> []
            | Some node ->
              [
                mk
                  (Printf.sprintf "%s.depth" v.label)
                  (fun () -> float_of_int (Ip_node.in_system node));
                mk
                  (Printf.sprintf "%s.busy" v.label)
                  (fun () -> float_of_int (Ip_node.busy_engines node));
              ])
          (G.vertices g)
        @ List.map
            (fun m ->
              mk
                (Printf.sprintf "%s.backlog" (Medium.label m))
                (fun () -> Medium.backlog m))
            media
      in
      (* sample times are multiples of dt, computed multiplicatively so
         accumulated rounding never drops the final sample *)
      let time_of i = float_of_int i *. dt in
      let rec sample i =
        let at = time_of i in
        List.iter
          (fun (s, probe) -> Telemetry.Series.add s ~time:at ~value:(probe ()))
          probes;
        if time_of (i + 1) <= config.duration then
          Engine.schedule engine ~at:(time_of (i + 1)) (fun () -> sample (i + 1))
      in
      if dt <= config.duration then
        Engine.schedule engine ~at:dt (fun () -> sample 1)
      else
        (* An interval beyond the horizon still owes the caller one
           final sample — an empty series would make report --csv emit
           a header-only file. Events scheduled at exactly the horizon
           fire, so the end-of-run state is observable. *)
        Engine.schedule engine ~at:config.duration (fun () ->
            List.iter
              (fun (s, probe) ->
                Telemetry.Series.add s ~time:config.duration
                  ~value:(probe ()))
              probes);
      List.map fst probes
  in
  let gen =
    Traffic_gen.create engine ~rng:gen_rng ~arrival:config.arrival
      ~mix:spec.Run.mix ~on_arrival
  in
  Traffic_gen.start gen ~until:config.duration;
  let profile =
    match metrics with Some m -> Metrics.profiler m | None -> None
  in
  (match checker with
  | Some inv ->
    Engine.run ~until:config.duration
      ~observer:(Invariants.observe_event_time inv)
      ?profile engine
  | None -> Engine.run ~until:config.duration ?profile engine);
  let summary = Telemetry.summarize telemetry ~horizon:config.duration in
  let vertex_stats =
    List.filter_map
      (fun (v : G.vertex) ->
        match Hashtbl.find_opt nodes v.id with
        | None -> None
        | Some node ->
          Some
            {
              vid = v.id;
              vlabel = v.label;
              drops = Ip_node.drops node;
              queue_drops =
                Array.init (Ip_node.queue_count node)
                  (Ip_node.drops_of_queue node);
              completions = Ip_node.completions node;
              utilization = Ip_node.utilization node ~until:config.duration;
            })
      (G.vertices g)
  in
  let medium_stats =
    List.map
      (fun m ->
        {
          mlabel = Medium.label m;
          m_utilization = Medium.utilization m ~until:config.duration;
          m_busy = Medium.busy_within m ~until:config.duration;
          m_rejections = Medium.rejections m;
        })
      media
  in
  let fault_intervals =
    if not have_faults then []
    else
      let labels_at t =
        let rec find = function
          | (a, b, events) :: rest ->
            if t >= a && t < b then
              List.map (fun (ev : Faults.event) -> Faults.fault_label ev.fault) events
            else find rest
          | [] -> []
        in
        find fault_spans
      in
      List.init nbins (fun i ->
          let a = boundaries.(i) in
          let b =
            if i + 1 < nbins then boundaries.(i + 1) else config.duration
          in
          let len = b -. a in
          {
            i_start = a;
            i_stop = b;
            i_faults = labels_at a;
            i_offered = bin_offered.(i);
            i_delivered = bin_delivered.(i);
            i_dropped = bin_dropped.(i);
            i_throughput = (if len > 0. then bin_bytes.(i) /. len else 0.);
            i_latency =
              (if bin_delivered.(i) > 0 then
                 bin_latency.(i) /. float_of_int bin_delivered.(i)
               else 0.);
          })
  in
  let resilience =
    if not have_faults then None
    else begin
      let faulted = List.filter (fun r -> r.i_faults <> []) fault_intervals in
      match faulted with
      | [] -> None
      | _ ->
        let first_fault_start =
          List.fold_left (fun acc r -> Float.min acc r.i_start) infinity faulted
        in
        let last_fault_end =
          List.fold_left (fun acc r -> Float.max acc r.i_stop) 0. faulted
        in
        let healthy = List.filter (fun r -> r.i_faults = []) fault_intervals in
        (* Baseline: time-weighted throughput over healthy intervals
           before the first fault; when the plan faults from t = 0, any
           healthy interval has to stand in. *)
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
            baseline_over
              (List.filter (fun r -> r.i_stop <= first_fault_start) healthy)
          with
          | Some b -> Some b
          | None -> baseline_over healthy
        in
        let recovery_time =
          match baseline with
          | None -> None
          | Some base ->
            if last_fault_end >= config.duration then None
            else
              List.find_opt
                (fun r ->
                  r.i_start >= last_fault_end && r.i_throughput >= 0.9 *. base)
                fault_intervals
              |> Option.map (fun r -> r.i_start -. last_fault_end)
        in
        let worst =
          List.fold_left
            (fun (acc : interval_stats) r ->
              if r.i_throughput < acc.i_throughput then r else acc)
            (List.hd faulted) (List.tl faulted)
        in
        Some
          {
            recovery_time;
            worst_throughput = worst.i_throughput;
            worst_start = worst.i_start;
          }
    end
  in
  let invariants =
    match checker with
    | None -> None
    | Some inv ->
      let horizon = config.duration in
      (* End-of-run entity laws: horizon-clipped utilization and busy
         time for every node and medium. *)
      List.iter
        (fun (v : G.vertex) ->
          match Hashtbl.find_opt nodes v.id with
          | None -> ()
          | Some node ->
            let busy = Ip_node.busy_within node ~until:horizon in
            Invariants.check_bound inv ~law:"utilization" ~entity:v.label
              ~time:horizon ~limit:1.
              ~actual:(Ip_node.utilization node ~until:horizon)
              "node utilization must not exceed 1 at the horizon";
            Invariants.check_bound inv ~law:"busy-time" ~entity:v.label
              ~time:horizon
              ~limit:(float_of_int (Ip_node.engines node) *. horizon)
              ~actual:busy
              "engine-busy seconds must fit engines times the horizon";
            Invariants.check_nonneg inv ~law:"busy-time" ~entity:v.label
              ~time:horizon ~actual:busy
              "horizon-clipped busy time cannot be negative")
        (G.vertices g);
      List.iter
        (fun m ->
          let busy = Medium.busy_within m ~until:horizon in
          Invariants.check_bound inv ~law:"utilization"
            ~entity:(Medium.label m) ~time:horizon ~limit:1.
            ~actual:(Medium.utilization m ~until:horizon)
            "medium utilization must not exceed 1 at the horizon";
          Invariants.check_bound inv ~law:"busy-time" ~entity:(Medium.label m)
            ~time:horizon ~limit:horizon ~actual:busy
            "medium-busy seconds must fit the horizon";
          Invariants.check_nonneg inv ~law:"busy-time"
            ~entity:(Medium.label m) ~time:horizon ~actual:busy
            "horizon-clipped busy time cannot be negative")
        media;
      Invariants.check_conservation inv ~time:horizon
        ~generated:(Traffic_gen.generated gen);
      if have_faults then
        (* Interval accounting attributes every packet to its birth bin,
           so no bin can resolve more packets than were offered in it. *)
        Array.iteri
          (fun i offered ->
            Invariants.check_bound inv ~law:"interval-accounting"
              ~entity:(Printf.sprintf "interval-%d" i) ~time:horizon
              ~limit:(float_of_int offered)
              ~actual:(float_of_int (bin_delivered.(i) + bin_dropped.(i)))
              "a birth bin cannot resolve more packets than it offered")
          bin_offered;
      Invariants.check_summary inv ~horizon summary;
      Some (Invariants.report inv)
  in
  {
    summary;
    vertex_stats;
    medium_stats;
    drop_breakdown = summary.Telemetry.drop_breakdown;
    series;
    interface_utilization = Medium.utilization interface ~until:config.duration;
    memory_utilization = Medium.utilization memory ~until:config.duration;
    generated = Traffic_gen.generated gen;
    fault_intervals;
    resilience;
    trace;
    invariants;
    metrics;
    tenants =
      Option.map
        (fun a -> Tenant.summarize a ~horizon:config.duration)
        tenant_acc;
    flow_cache =
      Option.map
        (fun st -> Flow_cache.summarize st ~horizon:config.duration)
        flow_state;
  }

let execute spec = execute_with spec

let run ?(config = Config.default) g ~hw ~mix =
  execute (Run.make ~config g ~hw ~mix)

let run_single ?config g ~hw ~traffic = run ?config g ~hw ~mix:[ (traffic, 1.) ]

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

let measurement_to_json m =
  let module J = Telemetry.Json in
  J.versioned ~kind:"measurement"
    [
      ("summary", Telemetry.to_json m.summary);
      ( "vertices",
        J.Arr
          (List.map
             (fun v ->
               J.Obj
                 [
                   ("id", J.Num (float_of_int v.vid));
                   ("label", J.Str v.vlabel);
                   ("drops", J.Num (float_of_int v.drops));
                   ( "queue_drops",
                     J.Arr
                       (Array.to_list
                          (Array.map
                             (fun d -> J.Num (float_of_int d))
                             v.queue_drops)) );
                   ("completions", J.Num (float_of_int v.completions));
                   ("utilization", J.Num v.utilization);
                 ])
             m.vertex_stats) );
      ( "media",
        J.Arr
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("label", J.Str s.mlabel);
                   ("utilization", J.Num s.m_utilization);
                   ("busy", J.Num s.m_busy);
                   ("rejections", J.Num (float_of_int s.m_rejections));
                 ])
             m.medium_stats) );
      ("series", J.Arr (List.map Telemetry.Series.to_json m.series));
      ("generated", J.Num (float_of_int m.generated));
      ("fault_intervals", J.Arr (List.map interval_to_json m.fault_intervals));
      ( "resilience",
        match m.resilience with
        | None -> J.Null
        | Some r -> resilience_to_json r );
    ]

type entity_replicated = {
  entity : string;
  utilization_mean : float;
  drops_mean : float;
}

type resilience_replicated = {
  recovered_runs : int;
  recovery_mean : float;
  recovery_max : float;
  worst_throughput_mean : float;
  worst_throughput_min : float;
}

type replicated = {
  runs : int;
  throughput_mean : float;
  throughput_stddev : float;
  latency_mean : float;
  latency_stddev : float;
  loss_mean : float;
  entities : entity_replicated list;
  resilience : resilience_replicated option;
}

let replication_specs (spec : Run.t) runs =
  if runs < 2 then invalid_arg "Netsim.execute_replicated: needs runs >= 2";
  let config = spec.Run.config in
  List.init runs (fun i ->
      Run.with_config spec (Config.with_seed (config.seed + i) config))

let resilience_across measurements =
  let per_run =
    List.filter_map (fun (m : measurement) -> m.resilience) measurements
  in
  match per_run with
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

let replicated_of_measurements measurements =
  let runs = List.length measurements in
  if runs < 2 then invalid_arg "Netsim.replicated_of_measurements: needs >= 2";
  let n = float_of_int runs in
  (* Per-entity across-run means, in the first run's (deterministic)
     entity order: every replication simulates the same graph, so the
     entity lists line up run to run. *)
  let entity_rows m =
    List.map (fun v -> (v.vlabel, v.utilization, float_of_int v.drops))
      m.vertex_stats
    @ List.map
        (fun s -> (s.mlabel, s.m_utilization, float_of_int s.m_rejections))
        m.medium_stats
  in
  let acc = Hashtbl.create 16 in
  List.iter
    (fun m ->
      List.iter
        (fun (entity, util, drops) ->
          let u, d =
            Option.value (Hashtbl.find_opt acc entity) ~default:(0., 0.)
          in
          Hashtbl.replace acc entity (u +. util, d +. drops))
        (entity_rows m))
    measurements;
  let entities =
    List.map
      (fun (entity, _, _) ->
        let u, d = Hashtbl.find acc entity in
        { entity; utilization_mean = u /. n; drops_mean = d /. n })
      (entity_rows (List.hd measurements))
  in
  let stat f = Array.of_list (List.map (fun m -> f m.summary) measurements) in
  let throughputs = stat (fun s -> s.Telemetry.throughput) in
  let latencies = stat (fun s -> s.Telemetry.mean_latency) in
  let module St = Lognic_numerics.Stats in
  {
    runs;
    throughput_mean = St.mean throughputs;
    throughput_stddev = St.stddev throughputs;
    latency_mean = St.mean latencies;
    latency_stddev = St.stddev latencies;
    loss_mean = St.mean (stat (fun s -> s.Telemetry.loss_rate));
    entities;
    resilience = resilience_across measurements;
  }

let execute_replicated ?(runs = 5) spec =
  (* One engine serves every sequential replication: {!Engine.reset}
     clears it between runs while keeping the calendar queue's arrays
     warm, and reuse is result-identical (see {!execute_with}). *)
  let engine = Engine.create () in
  replicated_of_measurements
    (List.map (fun s -> execute_with ~engine s) (replication_specs spec runs))
