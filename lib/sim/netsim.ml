module G = Lognic.Graph
module N = Lognic_numerics

type config = {
  seed : int;
  duration : float;
  warmup : float;
  service_dist : Ip_node.service_dist;
  arrival : Traffic_gen.arrival;
  sample_interval : float option;
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
      trace = None;
      check_invariants = false;
      metrics = None;
      tenants = None;
      flow_cache = None;
    }

  let with_seed seed c = { c with seed }
  let with_duration duration c = { c with duration }

  let with_horizon ?warmup duration c =
    let warmup = match warmup with Some w -> w | None -> duration /. 10. in
    { c with duration; warmup }

  let with_service_dist service_dist c = { c with service_dist }
  let with_arrival arrival c = { c with arrival }
  let with_sampling interval c = { c with sample_interval = Some interval }
  let with_trace trace c = { c with trace = Some trace }
  let with_invariants check_invariants c = { c with check_invariants }
  let with_metrics metrics c = { c with metrics = Some metrics }
  let with_tenants tenants c = { c with tenants = Some tenants }
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

type measurement = {
  summary : Telemetry.summary;
  vertex_stats : vertex_stats list;
  medium_stats : medium_stats list;
  drop_breakdown : (Telemetry.drop_site * int) list;
  series : Telemetry.Series.t list;
  interface_utilization : float;
  memory_utilization : float;
  generated : int;
  fault_intervals : Faults.interval_stats list;
  resilience : Faults.resilience option;
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
  mutable fl_queue : int;  (* node queue index; 0 unless tenanted *)
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

let execute_with ?engine:reused (spec : Run.t) =
  let g = spec.Run.graph in
  let hw = spec.Run.hw in
  let config = spec.Run.config in
  if not (Float.is_finite config.duration && config.duration > 0.) then
    invalid_arg "Netsim.run: duration must be positive and finite";
  (match G.validate g with
  | Ok () -> ()
  | Error errors ->
    invalid_arg ("Netsim.run: invalid graph: " ^ String.concat "; " errors));
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
     untenanted queue 0 for every packet *)
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
  (* Media in deterministic report order: the two shared media first,
     then dedicated links in edge order. *)
  let media =
    (interface :: memory :: [])
    @ List.filter_map
        (fun (e : G.edge) -> Hashtbl.find_opt links (e.src, e.dst))
        (G.edges g)
  in
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
  (* Nodes in graph order, the order every per-entity report uses. *)
  let node_list =
    List.filter_map (fun (v : G.vertex) -> Hashtbl.find_opt nodes v.id) (G.vertices g)
  in
  (* The fault rng is split only when a plan is present, after the
     per-node rngs and before the trace rng: an empty plan leaves every
     stream exactly where the pre-fault code put it (byte-identical
     runs), and a non-empty plan perturbs at most which packets the
     trace reservoir samples — never a measured quantity. Realizing
     the plan schedules its apply/revert events, ahead of every other
     setup event. *)
  let faults =
    if Faults.is_empty spec.Run.faults then None
    else
      Some
        (Faults.realize spec.Run.faults engine ~rng:(N.Rng.split rng)
           ~nodes:node_list ~media ~duration:config.duration)
  in
  (* The tenant rng follows the same discipline as the fault rng: split
     only when arrivals actually need a tenant draw (>= 2 tenants), so
     untenanted and single-tenant runs leave every stream exactly where
     the pre-tenant code put it. Split before the trace rng, which must
     stay last. *)
  let tenant_rng = if tenanted_sched then Some (N.Rng.split rng) else None in
  (* The attribution table exists whenever tenants are configured — a
     single-tenant run still reports per-tenant stats — one row per
     tenant, windowed at the warmup. *)
  let tenants =
    Option.map
      (fun tset ->
        let rows = Tenant.count tset in
        (tset, Telemetry.Table.create ~rows ~cutoff:config.warmup))
      tenant_set
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
  let flow =
    Option.map
      (fun fspec ->
        let st = Flow_cache.create ~spec:fspec ~warmup:config.warmup in
        let roles = Flow_cache.roles fspec g in
        (st, roles, N.Rng.split rng))
      config.flow_cache
  in
  (* The trace rng is split last — after every stream the untraced run
     splits — and only when tracing is on, so enabling tracing perturbs
     no other stochastic stream and measurements stay bit-identical. *)
  let trace =
    Option.map
      (fun tc -> Trace.create ~config:tc ~rng:(N.Rng.split rng) ())
      config.trace
  in
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
  (* Media admission invariant. Skipped on faulted runs: a bandwidth
     restore mid-backlog legitimately re-values the queued bytes at the
     healthy rate, which can exceed the byte limit the degraded
     admission enforced. *)
  let check_medium =
    match checker with
    | Some inv when faults = None ->
      fun m -> Invariants.check_medium inv ~time:(Engine.now engine) m
    | Some _ | None -> fun _ -> ()
  in
  (* ---- live metrics ------------------------------------------------ *)
  (* Attached after the dense tables so every drop site is interned;
     read-only, so enabling metrics never changes measurement JSON
     (held by the [metrics] test "netsim: metrics on/off bit-identical"). *)
  let metrics =
    Option.map
      (fun mc ->
        Metrics.attach mc engine ~telemetry ~nodes:node_list ~media ?tenants
          ~until:config.duration ())
      config.metrics
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
      if
        Ip_node.submit_at node ?tally:fl.fl_tally ?span:fl.fl_span_node
          ~queue:fl.fl_queue
          ~work:(fl.fs.(Telemetry.slot_size) *. vr.v_work_factor)
          fl.fl_on_served
      then begin
        match checker with
        | Some inv ->
          (* [submit] may have run the whole downstream walk
             synchronously (zero-work fast path), but the bounds hold at
             every instant, so checking after it returns is still sound.
             (The flight may already be recycled here — only the node is
             consulted.) *)
          Invariants.check_admitted inv ~time:(Engine.now engine)
            ~limit:vr.v_cap_limit node
        | None -> ()
      end
      else drop_flight fl vr.v_drop
  and serve_f fl =
    let vr = vrt.(fl.fl_vertex) in
    if vr.v_is_egress then begin
      fl.fs.(Telemetry.slot_now) <- Engine.now engine;
      (match checker with
      | Some inv ->
        Invariants.check_delivery inv ~id:fl.fl_id ~time:(Engine.now engine) fl.fs
      | None -> ());
      (match fl.fl_tr with
      | Some r -> Trace.deliver r ~time:(Engine.now engine)
      | None -> ());
      (match faults with
      | Some f -> Faults.record_delivered f fl.fs
      | None -> ());
      (* Live-metrics latency histogram, windowed by birth like the
         summary; [observe_span] is allocation-free and reads nothing
         back, so the disabled path is one pointer compare. *)
      (match metrics with
      | Some (_, h) ->
        if fl.fs.(Telemetry.slot_born) >= config.warmup then
          Metrics.observe_span h fl.fs ~from_slot:Telemetry.slot_born
            ~to_slot:Telemetry.slot_now
      | None -> ());
      Telemetry.record_completion_fs telemetry ~fs:fl.fs ~klass:fl.fl_klass;
      (match tenants with
      | Some (_, tbl) -> Telemetry.Table.record_delivered tbl ~row:fl.fl_tenant fl.fs
      | None -> ());
      (match flow with
      | Some (st, _, _) when fl.fl_fclass >= 0 ->
        Telemetry.Table.record_delivered (Flow_cache.table st) ~row:fl.fl_fclass
          fl.fs
      | _ -> ());
      release_flight fl
    end
    else if vr.v_out_total <= 0. then
      (* Dead end without egress: validation rejects IPs like this, so
         only an ingress with zero-delta out-edges can reach here. *)
      release_flight fl
    else begin
      (match flow with
      | Some (st, roles, _) when roles.(fl.fl_vertex) <> 0 ->
        (* State-dependent split: the route out of a cache vertex is
           decided by an actual lookup on this packet's flow, not by
           the static deltas (hit = first out-edge, miss = second).
           The route rng is not consumed here, so its stream stays
           aligned across runs that only differ in cache geometry. *)
        let now = Engine.now engine in
        let hit =
          if roles.(fl.fl_vertex) = 1 then begin
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
  (* The one drop recorder: queue and buffer rejections mid-walk and
     burst sheds at ingress all resolve a flight here. *)
  and drop_flight fl d =
    (match checker with
    | Some inv ->
      Invariants.packet_dropped inv ~id:fl.fl_id ~time:(Engine.now engine)
    | None -> ());
    (match fl.fl_tr with
    | Some r -> Trace.drop r ~site:d.d_name ~time:(Engine.now engine)
    | None -> ());
    (match faults with
    | Some f -> Faults.record_dropped f fl.fs
    | None -> ());
    Telemetry.record_drop_counted telemetry ~born:fl.fs.(Telemetry.slot_born)
      d.dk;
    (match tenants with
    | Some (_, tbl) -> Telemetry.Table.record_dropped tbl ~row:fl.fl_tenant fl.fs
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
        fl_queue = 0;
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
    fl.fl_queue <- (if tenant_classes = 0 then 0 else (tid * tenant_classes) + klass);
    (match tenants with
    | Some (_, tbl) -> Telemetry.Table.record_offered tbl ~row:tid fs
    | None -> ());
    (match faults with
    | Some f -> Faults.record_offered f fs
    | None -> ());
    fl.fl_tr <-
      (match trace with
      | None -> None
      | Some t -> Trace.on_packet t ~packet:id ~born:now ~size ~klass);
    (* An active drop burst sheds the packet at ingress. *)
    if match faults with Some f -> Faults.shed f | None -> false then
      drop_flight fl burst_drop
    else begin
      fl.fl_vertex <-
        (if Array.length ingress_ids = 1 then ingress_ids.(0)
         else ingress_ids.(N.Rng.int route_rng (Array.length ingress_ids)));
      (* The flow id comes from the dedicated flow rng — one bits draw
         through the Zipf alias table — and only for packets that enter
         the datapath, so burst-shed arrivals consume nothing from the
         stream. A packet that never reaches a cache vertex keeps
         class -1 (unclassified) and is left out of the class table. *)
      (match flow with
      | Some (st, _, frng) ->
        fl.fl_flow <- Flow_cache.draw st ~bits:(N.Rng.bits frng);
        fl.fl_fclass <- -1
      | None -> ());
      (* Install span sinks per packet: an unsampled flight carries
         [None], so the per-hop span calls in [Ip_node]/[Medium]
         short-circuit before boxing their float arguments — with a
         64-packet reservoir virtually every packet takes that path,
         which is what keeps the traced-run overhead inside its 5%
         budget. *)
      if tracing then begin
        match fl.fl_tr with
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
      let probes =
        List.concat_map
          (fun node ->
            let label = Ip_node.label node in
            [
              (label ^ ".depth", fun () -> float_of_int (Ip_node.in_system node));
              (label ^ ".busy", fun () -> float_of_int (Ip_node.busy_engines node));
            ])
          node_list
        @ List.map (fun m -> (Medium.label m ^ ".backlog", fun () -> Medium.backlog m)) media
        |> List.map (fun (label, probe) ->
               ( Telemetry.Series.create ~label ~interval:dt (),
                 probe ))
      in
      Engine.every engine ~interval:dt ~until:config.duration (fun time ->
          List.iter
            (fun (s, probe) -> Telemetry.Series.add s ~time ~value:(probe ()))
            probes);
      List.map fst probes
  in
  let gen =
    Traffic_gen.create engine ~rng:gen_rng ~arrival:config.arrival
      ~mix:spec.Run.mix ~on_arrival
  in
  Traffic_gen.start gen ~until:config.duration;
  let profile = Option.bind metrics (fun (m, _) -> Metrics.profiler m) in
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
  let fault_intervals, resilience =
    match faults with None -> ([], None) | Some f -> Faults.summarize f
  in
  let invariants =
    Option.map
      (fun inv ->
        Invariants.check_horizon inv ~horizon:config.duration ~nodes:node_list
          ~media ~generated:(Traffic_gen.generated gen)
          ?birth_bins:(Option.map Faults.birth_bins faults)
          summary;
        Invariants.report inv)
      checker
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
    metrics = Option.map fst metrics;
    tenants =
      Option.map
        (fun (tset, tbl) -> Tenant.summarize tset tbl ~horizon:config.duration)
        tenants;
    flow_cache =
      Option.map
        (fun (st, _, _) -> Flow_cache.summarize st ~horizon:config.duration)
        flow;
  }

let execute spec = execute_with spec

let run ?(config = Config.default) g ~hw ~mix =
  execute (Run.make ~config g ~hw ~mix)

let run_single ?config g ~hw ~traffic = run ?config g ~hw ~mix:[ (traffic, 1.) ]

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
      ("fault_intervals", J.Arr (List.map Faults.interval_to_json m.fault_intervals));
      ( "resilience",
        match m.resilience with
        | None -> J.Null
        | Some r -> Faults.resilience_to_json r );
    ]

type entity_replicated = {
  entity : string;
  utilization_mean : float;
  drops_mean : float;
}

type replicated = {
  runs : int;
  throughput_mean : float;
  throughput_stddev : float;
  latency_mean : float;
  latency_stddev : float;
  loss_mean : float;
  entities : entity_replicated list;
  resilience : Faults.resilience_replicated option;
}

let replication_specs (spec : Run.t) runs =
  if runs < 2 then invalid_arg "Netsim.execute_replicated: needs runs >= 2";
  let config = spec.Run.config in
  List.init runs (fun i ->
      Run.with_config spec (Config.with_seed (config.seed + i) config))

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
    resilience =
      Faults.resilience_across
        (List.map (fun (m : measurement) -> m.resilience) measurements);
  }

let execute_replicated ?(runs = 5) spec =
  (* One engine serves every sequential replication: {!Engine.reset}
     clears it between runs while keeping the calendar queue's arrays
     warm, and reuse is result-identical (see {!execute_with}). *)
  let engine = Engine.create () in
  replicated_of_measurements
    (List.map (fun s -> execute_with ~engine s) (replication_specs spec runs))
