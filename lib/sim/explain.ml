module G = Lognic.Graph
module J = Telemetry.Json

type entity_row = {
  name : string;
  model_utilization : float;
  sim_utilization : float;
  residual : float;
  model_queueing : float option;
  model_queue_depth : float option;
  sim_queue_depth : float option;
  model_drop_probability : float option;
  drops : int;
}

type pair = { model : float; sim : float option; error : float option }

type join = { throughput : pair; latency : pair }

type class_row = {
  c_traffic : Lognic.Traffic.t;
  c_weight : float;
  c_throughput : pair;
  c_latency : pair;
  c_model_bottleneck : string;
}

type report = {
  model : Lognic.Extensions.mixed_report;
  measurement : Netsim.measurement;
  join : join;
  class_rows : class_row list;
  rows : entity_row list;
  model_bottleneck : string;
  sim_bottleneck : string;
  agree : bool;
}

(* The entity name a throughput bound pins ("offered-load" for
   {!Lognic.Throughput.Offered_load}), matching {!entity_row.name}. *)
let bound_name g = function
  | Lognic.Throughput.Vertex_bound id -> (G.vertex g id).G.label
  | Lognic.Throughput.Edge_bound (s, d) -> Lognic.Params.medium_name (Link (s, d))
  | Lognic.Throughput.Interface_bound -> Lognic.Params.medium_name Interface
  | Lognic.Throughput.Memory_bound -> Lognic.Params.medium_name Memory
  | Lognic.Throughput.Resource_bound name -> "resource:" ^ name
  | Lognic.Throughput.Offered_load -> "offered-load"

let relative_error ~model ~sim =
  let scale = Float.max (Float.abs sim) (Float.abs model) in
  if not (Float.is_finite model) then 1.
  else if scale <= 0. then 0.
  else Float.abs (model -. sim) /. scale

let pair ~model ~sim =
  { model; sim; error = Option.map (fun sim -> relative_error ~model ~sim) sim }

(* A row that delivered no packet has no sim latency. *)
let if_delivered delivered x = if delivered > 0 then Some x else None

let opt_float = function None -> J.Null | Some x -> J.Num x

let pair_fields name (p : pair) =
  [
    ("model_" ^ name, J.Num p.model);
    ("sim_" ^ name, opt_float p.sim);
    (name ^ "_error", opt_float p.error);
  ]

let cell fmt = function None -> "-" | Some x -> Printf.sprintf fmt x

let error_cell fmt (p : pair) = cell fmt (Option.map (fun e -> 100. *. e) p.error)

let join ~throughput ~latency (m : Netsim.measurement) =
  let s = m.Netsim.summary in
  {
    throughput = pair ~model:throughput ~sim:(Some s.Telemetry.throughput);
    latency =
      pair ~model:latency
        ~sim:(if_delivered s.Telemetry.delivered_packets s.Telemetry.mean_latency);
  }

(* The two aggregate lines, ["  throughput  model … sim … error …"]
   and ["  latency     model … sim … error …"]. *)
let pp_join ppf j =
  let line name unit (p : pair) =
    Format.fprintf ppf "  %-11s model %.4g %-3s   sim %s %-3s   error %s@\n" name
      p.model unit (cell "%.4g" p.sim) unit
      (error_cell "%.1f%%" p)
  in
  line "throughput" "B/s" j.throughput;
  line "latency" "s" j.latency

(* The join's JSON fields: the model side's [throughput] and
   [latency], the sim side's, and [throughput_error] /
   [latency_error]. Each report places the first two in its own
   [model] and [sim] objects, next to its own fields. *)
let join_json j =
  let side f = [ ("throughput", f j.throughput); ("latency", f j.latency) ] in
  ( side (fun (p : pair) -> J.Num p.model),
    side (fun p -> opt_float p.sim),
    [
      ("throughput_error", opt_float j.throughput.error);
      ("latency_error", opt_float j.latency.error);
    ] )

(* Mean of a gauge's sampled history ("ENTITY.NAME"); [None] when the
   run kept no such history. *)
let gauge_mean (m : Netsim.measurement) label =
  Option.fold ~none:[] ~some:Metrics.series m.Netsim.metrics
  |> List.find_opt (fun s -> Telemetry.Series.label s = label)
  |> Option.map Telemetry.Series.to_array
  |> fun a ->
  match a with
  | Some samples when Array.length samples > 0 ->
    Some (Lognic_numerics.Stats.mean (Array.map snd samples))
  | _ -> None

(* The join needs sampled queue depths; attach the gauges on a fine
   grid when the caller didn't pick one. *)
let with_default_metrics config =
  let config = Option.value config ~default:Netsim.Config.default in
  match config.Netsim.metrics with
  | Some _ -> config
  | None ->
    Netsim.Config.with_metrics
      { Metrics.default_config with interval = config.duration /. 256. }
      config

(* The per-entity join: one row per simulated vertex among the caps'
   vertices, then the interface, the memory and each simulated
   dedicated link, ranked by simulated utilization (the top row is the
   sim bottleneck). Model utilization is [attained] over each cap;
   [vertex_model] supplies a vertex's model queueing delay, queue depth
   and drop probability. *)
let entity_join g (m : Netsim.measurement) (caps : Lognic.Throughput.result)
    ~attained ~vertex_model =
  let medium_row label =
    List.find_opt (fun (s : Netsim.medium_stats) -> s.mlabel = label) m.medium_stats
  in
  let vertex_rows =
    List.filter_map
      (fun (vid, cap) ->
        match
          List.find_opt (fun (s : Netsim.vertex_stats) -> s.vid = vid) m.vertex_stats
        with
        | None -> None
        | Some s ->
          let name = (G.vertex g vid).G.label in
          let model_utilization = if cap > 0. then attained /. cap else 0. in
          let model_queueing, model_queue_depth, model_drop_probability =
            vertex_model vid
          in
          Some
            {
              name;
              model_utilization;
              sim_utilization = s.utilization;
              residual = s.utilization -. Float.min 1. model_utilization;
              model_queueing;
              model_queue_depth;
              sim_queue_depth = gauge_mean m (name ^ ".queue_depth");
              model_drop_probability;
              drops = s.drops;
            })
      caps.Lognic.Throughput.vertex_caps
  in
  let shared_medium (name, cap) =
    Option.map
      (fun (md : Netsim.medium_stats) ->
        let sim_utilization = md.m_utilization in
        let model_utilization =
          if cap > 0. && cap < infinity then attained /. cap else 0.
        in
        {
          name;
          model_utilization;
          sim_utilization;
          residual = sim_utilization -. Float.min 1. model_utilization;
          model_queueing = None;
          model_queue_depth = None;
          sim_queue_depth = gauge_mean m (name ^ ".backlog_bytes");
          model_drop_probability = None;
          drops = md.m_rejections;
        })
      (medium_row name)
  in
  let medium_rows =
    List.filter_map shared_medium
      ((Lognic.Params.medium_name Interface, caps.Lognic.Throughput.interface_cap)
      :: (Lognic.Params.medium_name Memory, caps.Lognic.Throughput.memory_cap)
      :: List.map
           (fun ((s, d), cap) -> (Lognic.Params.medium_name (Link (s, d)), cap))
           caps.Lognic.Throughput.edge_caps)
  in
  let rows =
    List.stable_sort
      (fun a b -> Float.compare b.sim_utilization a.sim_utilization)
      (vertex_rows @ medium_rows)
  in
  (rows, match rows with [] -> "none" | top :: _ -> top.name)

let run ?config ?queue_model ?contention g ~hw ~mix =
  let model = Lognic.Estimate.run_mix ?queue_model ?contention g ~hw ~mix in
  let config = with_default_metrics config in
  let measurement = Netsim.(execute (Run.make ~config g ~hw ~mix)) in
  let summary = measurement.Netsim.summary in
  let window = summary.Telemetry.window in
  let classes = model.Lognic.Extensions.classes in
  let class_rows =
    List.mapi
      (fun i ((cls : Lognic.Traffic.t), w, (tp : Lognic.Throughput.result), (lat : Lognic.Latency.result)) ->
        let delivered, sim_mean =
          match
            List.find_opt
              (fun (c, _, _) -> c = i)
              summary.Telemetry.per_class
          with
          | Some (_, d, m) -> (d, m)
          | None -> (0, 0.)
        in
        let sim_throughput =
          if window > 0. then
            float_of_int delivered *. cls.packet_size /. window
          else 0.
        in
        {
          c_traffic = cls;
          c_weight = w;
          c_throughput = pair ~model:tp.attained ~sim:(Some sim_throughput);
          c_latency =
            pair ~model:lat.mean ~sim:(if_delivered delivered sim_mean);
          c_model_bottleneck = bound_name g tp.bottleneck;
        })
      classes
  in
  (* Shared-entity view: roofline caps are traffic-independent (Eq 4),
     so one plain evaluation supplies them; the joint utilization is
     the classes' summed carried rate over each cap. A vertex's model
     queueing and drop probability are the weight-averaged class terms;
     its queue depth sums per-class Little's-law terms over the union
     streams (packet arrival rate × (Q + C/A)). *)
  let first_cls = match classes with (c, _, _, _) :: _ -> c | [] -> assert false in
  let caps = Lognic.Throughput.evaluate g ~hw ~traffic:first_cls in
  let vertex_model vid =
    let terms =
      List.filter_map
        (fun ((cls : Lognic.Traffic.t), w, _, (lat : Lognic.Latency.result)) ->
          Option.map
            (fun (t : Lognic.Latency.vertex_terms) -> (cls, w, t))
            (List.find_opt
               (fun (t : Lognic.Latency.vertex_terms) -> t.vid = vid)
               lat.Lognic.Latency.per_vertex))
        classes
    in
    let sum f =
      match terms with
      | [] -> None
      | terms ->
        Some (List.fold_left (fun acc (cls, w, t) -> acc +. f cls w t) 0. terms)
    in
    ( sum (fun _ w (t : Lognic.Latency.vertex_terms) -> w *. t.queueing),
      sum (fun (cls : Lognic.Traffic.t) _ (t : Lognic.Latency.vertex_terms) ->
          cls.rate *. Lognic.Throughput.vertex_inflow g vid /. cls.packet_size
          *. (t.queueing +. t.service)),
      sum (fun _ w (t : Lognic.Latency.vertex_terms) -> w *. t.drop_probability) )
  in
  let rows, sim_bottleneck =
    entity_join g measurement caps
      ~attained:model.Lognic.Extensions.throughput ~vertex_model
  in
  (* the joint model bottleneck: the bound of the class with the
     tightest capacity *)
  let model_bottleneck =
    match
      List.stable_sort
        (fun (_, _, (a : Lognic.Throughput.result), _)
             (_, _, (b : Lognic.Throughput.result), _) ->
          Float.compare a.capacity b.capacity)
        classes
    with
    | (_, _, tp, _) :: _ -> bound_name g tp.Lognic.Throughput.bottleneck
    | [] -> "none"
  in
  {
    model;
    measurement;
    join =
      join ~throughput:model.Lognic.Extensions.throughput
        ~latency:model.Lognic.Extensions.latency measurement;
    class_rows;
    rows;
    model_bottleneck;
    sim_bottleneck;
    agree = String.equal model_bottleneck sim_bottleneck;
  }

let row_to_json rank r =
  J.Obj
    [
      ("rank", J.Num (float_of_int rank));
      ("entity", J.Str r.name);
      ("model_utilization", J.Num r.model_utilization);
      ("sim_utilization", J.Num r.sim_utilization);
      ("residual", J.Num r.residual);
      ("model_queueing_s", opt_float r.model_queueing);
      ("model_queue_depth", opt_float r.model_queue_depth);
      ("sim_queue_depth", opt_float r.sim_queue_depth);
      ("model_drop_probability", opt_float r.model_drop_probability);
      ("drops", J.Num (float_of_int r.drops));
    ]

let class_row_fields i r =
  [
    ("class", J.Num (float_of_int i));
    ("rate", J.Num r.c_traffic.Lognic.Traffic.rate);
    ("packet_size", J.Num r.c_traffic.Lognic.Traffic.packet_size);
    ("weight", J.Num r.c_weight);
  ]
  @ pair_fields "throughput" r.c_throughput
  @ pair_fields "latency" r.c_latency
  @ [ ("model_bottleneck", J.Str r.c_model_bottleneck) ]

let head_json ~kind t fields =
  let model, sim, errors = join_json t.join in
  J.versioned ~kind
    ([
       ("model", J.Obj (model @ [ ("bottleneck", J.Str t.model_bottleneck) ]));
       ("sim", J.Obj (sim @ [ ("bottleneck", J.Str t.sim_bottleneck) ]));
       ("agree", J.Bool t.agree);
     ]
    @ errors @ fields)

(* A one-class mix has no per-class table: its one row would repeat the
   aggregate join. *)
let multi_class t = List.compare_length_with t.class_rows 2 >= 0

let to_json t =
  head_json ~kind:"explain" t
    ((if multi_class t then
        [
          ( "classes",
            J.Arr (List.mapi (fun i r -> J.Obj (class_row_fields i r)) t.class_rows)
          );
        ]
      else [])
    @ [ ("entities", J.Arr (List.mapi (fun i r -> row_to_json (i + 1) r) t.rows)) ])

let pp ppf t =
  Format.fprintf ppf "explain: model vs simulation%s@\n"
    (if multi_class t then
       Printf.sprintf " (%d-class mix)" (List.length t.class_rows)
     else "");
  pp_join ppf t.join;
  Format.fprintf ppf "  bottleneck  model=%s  sim=%s  (%s)@\n"
    t.model_bottleneck t.sim_bottleneck
    (if t.agree then "agree" else "disagree");
  if multi_class t then begin
    Format.fprintf ppf "  %-5s %9s %7s %12s %12s %8s %12s %12s %8s@\n" "class"
      "size" "weight" "model-tput" "sim-tput" "t-err" "model-lat" "sim-lat"
      "l-err";
    List.iteri
      (fun i r ->
        Format.fprintf ppf
          "  %-5d %9.0f %7.3f %12.4g %12s %8s %12.4g %12s %8s@\n" i
          r.c_traffic.Lognic.Traffic.packet_size r.c_weight r.c_throughput.model
          (cell "%.4g" r.c_throughput.sim)
          (error_cell "%.1f%%" r.c_throughput)
          r.c_latency.model (cell "%.4g" r.c_latency.sim)
          (error_cell "%.1f%%" r.c_latency))
      t.class_rows
  end;
  Format.fprintf ppf
    "  %-4s %-16s %9s %9s %9s %11s %9s %6s@\n" "rank" "entity" "model-u"
    "sim-u" "residual" "modelQ(pkt)" "simQ" "drops";
  List.iteri
    (fun i r ->
      Format.fprintf ppf "  %-4d %-16s %9.3f %9.3f %+9.3f %11s %9s %6d@\n"
        (i + 1) r.name r.model_utilization r.sim_utilization r.residual
        (cell "%.3g" r.model_queue_depth)
        (cell "%.3g" r.sim_queue_depth)
        r.drops)
    t.rows

(* ---- tenants -------------------------------------------------------- *)

type tenant_row = {
  tn_name : string;
  tn_weight : int;
  tn_share : float;
  tn_throughput : pair;
  tn_latency : pair;
  tn_model_blocking : float option;
  tn_slo_p99 : float option;
  tn_slo_ok : bool option;
}

type tenant_report = {
  tr_stats : Tenant.stats;
  tr_measurement : Netsim.measurement;
  tr_join : join;
  tr_rows : tenant_row list;
  tr_model_bottleneck : string;
  tr_differentiated : bool;
}

let run_tenants ?config ?queue_model g ~hw ~traffic ~tenants =
  let model = Lognic.Estimate.run ?queue_model g ~hw ~traffic in
  let config = Option.value config ~default:Netsim.Config.default in
  let config = Netsim.Config.with_tenants tenants config in
  let measurement = Netsim.(execute (Run.single ~config g ~hw ~traffic)) in
  let stats =
    match measurement.Netsim.tenants with
    | Some s -> s
    | None -> assert false (* config carried the tenant set *)
  in
  let tp = model.Lognic.Estimate.throughput in
  let lat = model.Lognic.Estimate.latency in
  let attained = tp.Lognic.Throughput.attained in
  let agg_latency = lat.Lognic.Latency.mean in
  let shares = Tenant.shares tenants in
  let weights = Array.map float_of_int (Tenant.weights tenants) in
  let n = Tenant.count tenants in
  (* The per-tenant analytic decomposition needs a vertex to decompose:
     when the model's bottleneck is an IP vertex, the shared engine
     pool there is evaluated as a weighted multi-class M/M/c/N
     ({!Lognic_queueing.Wmmcn}) with each tenant's arrival stream; any
     other bound (interface / memory / link / offered-load) serves
     tenants indistinguishably, so the model predicts no per-tenant
     differentiation and every tenant gets the aggregate prediction
     scaled by its share. *)
  let per_tenant =
    match tp.Lognic.Throughput.bottleneck with
    | Lognic.Throughput.Vertex_bound vid ->
      let v = G.vertex g vid in
      let cap =
        match List.assoc_opt vid tp.Lognic.Throughput.vertex_caps with
        | Some c -> c
        | None -> 0.
      in
      if cap <= 0. || cap = infinity then None
      else begin
        let size = traffic.Lognic.Traffic.packet_size in
        let servers = v.G.service.G.parallelism in
        let mu = cap /. (float_of_int servers *. size) in
        let lambda_total = traffic.Lognic.Traffic.rate /. size in
        let lambda = Array.map (fun s -> s *. lambda_total) shares in
        let capacity = servers + v.G.service.G.queue_capacity in
        let results =
          Lognic_queueing.Wmmcn.evaluate ~lambda ~mu ~servers ~capacity
            ~weights
        in
        (* the aggregate model's wait at that same vertex, replaced by
           the tenant-specific Wmmcn wait in the per-tenant latency *)
        let agg_wait =
          match
            List.find_opt
              (fun (t : Lognic.Latency.vertex_terms) -> t.vid = vid)
              lat.Lognic.Latency.per_vertex
          with
          | Some t -> t.Lognic.Latency.queueing
          | None -> 0.
        in
        Some
          (Array.init n (fun i ->
               let r = results.(i) in
               let throughput =
                 lambda.(i) *. (1. -. r.Lognic_queueing.Wmmcn.blocking) *. size
               in
               (* an infinite aggregate (M/M/1 past ρ = 1) has an
                  infinite wait at the bottleneck: inf − inf is no
                  latency *)
               let latency =
                 if agg_latency = infinity then infinity
                 else
                   Float.max 0.
                     (agg_latency -. agg_wait
                     +. r.Lognic_queueing.Wmmcn.waiting)
               in
               (throughput, latency, Some r.Lognic_queueing.Wmmcn.blocking)))
      end
    | _ -> None
  in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i (r : Tenant.row) ->
           let model_throughput, model_latency, model_blocking =
             match per_tenant with
             | Some a -> a.(i)
             | None -> (shares.(i) *. attained, agg_latency, None)
           in
           {
             tn_name = r.Tenant.r_name;
             tn_weight = r.Tenant.r_weight;
             tn_share = r.Tenant.r_share;
             tn_throughput =
               pair ~model:model_throughput ~sim:(Some r.Tenant.r_throughput);
             tn_latency =
               pair ~model:model_latency
                 ~sim:(if_delivered r.Tenant.r_delivered r.Tenant.r_mean_latency);
             tn_model_blocking = model_blocking;
             tn_slo_p99 = r.Tenant.r_slo_p99;
             tn_slo_ok = r.Tenant.r_slo_ok;
           })
         stats.Tenant.rows)
  in
  {
    tr_stats = stats;
    tr_measurement = measurement;
    tr_join = join ~throughput:attained ~latency:agg_latency measurement;
    tr_rows = rows;
    tr_model_bottleneck = bound_name g tp.Lognic.Throughput.bottleneck;
    tr_differentiated = per_tenant <> None;
  }

let opt_bool = function None -> J.Null | Some b -> J.Bool b

let tenant_row_to_json r =
  J.Obj
    ([
       ("name", J.Str r.tn_name);
       ("weight", J.Num (float_of_int r.tn_weight));
       ("share", J.Num r.tn_share);
     ]
    @ pair_fields "throughput" r.tn_throughput
    @ pair_fields "latency" r.tn_latency
    @ [
        ("model_blocking", opt_float r.tn_model_blocking);
        ("slo_p99", opt_float r.tn_slo_p99);
        ("slo_ok", opt_bool r.tn_slo_ok);
      ])

let tenants_to_json t =
  let model, sim, errors = join_json t.tr_join in
  J.versioned ~kind:"tenants"
    ([
       ( "model",
         J.Obj
           (model
           @ [
               ("bottleneck", J.Str t.tr_model_bottleneck);
               ("differentiated", J.Bool t.tr_differentiated);
             ]) );
       ("sim", J.Obj sim);
     ]
    @ errors
    @ [
        ("tenants", J.Arr (List.map tenant_row_to_json t.tr_rows));
        ("sim_detail", Tenant.stats_to_json t.tr_stats);
      ])

let pp_tenants ppf t =
  let fairness = t.tr_stats.Tenant.t_fairness in
  Format.fprintf ppf "tenants: model vs simulation (%d tenants)@\n"
    (List.length t.tr_rows);
  pp_join ppf t.tr_join;
  Format.fprintf ppf "  bottleneck  %s (per-tenant model: %s)@\n"
    t.tr_model_bottleneck
    (if t.tr_differentiated then "weighted M/M/c/N" else "undifferentiated");
  Format.fprintf ppf
    "  fairness    maxmin %.3f   jain %.3f   interference %.2f@\n"
    fairness.Tenant.maxmin_ratio fairness.Tenant.jain
    fairness.Tenant.interference;
  Format.fprintf ppf "  %-12s %3s %6s %12s %12s %6s %10s %10s %6s %5s@\n"
    "tenant" "w" "share" "model-tput" "sim-tput" "t-err" "model-lat"
    "sim-lat" "l-err" "slo";
  List.iter
    (fun r ->
      let slo =
        match r.tn_slo_ok with
        | None -> "-"
        | Some true -> "ok"
        | Some false -> "MISS"
      in
      Format.fprintf ppf
        "  %-12s %3d %6.3f %12.4g %12s %6s %10.3g %10s %6s %5s@\n"
        r.tn_name r.tn_weight r.tn_share r.tn_throughput.model
        (cell "%.4g" r.tn_throughput.sim)
        (error_cell "%.0f%%" r.tn_throughput)
        r.tn_latency.model (cell "%.3g" r.tn_latency.sim)
        (error_cell "%.0f%%" r.tn_latency)
        slo)
    t.tr_rows

(* ---- flow cache ------------------------------------------------------ *)

type flowcache_class_row = {
  fr_name : string;  (* hot / warm / cold *)
  fr_model_share : float;
  fr_sim_share : float;
  fr_mean : pair;
  fr_model_p99 : float;
  fr_sim_p99 : float option;
}

type flowcache_report = {
  fc_model : Lognic.Flowcache.result;
  fc_stats : Flow_cache.stats;
  fc_measurement : Netsim.measurement;
  fc_bottleneck : string;
  fc_join : join;
  fc_emc_hit_error : float;
  fc_mega_hit_error : float;
  fc_overall_hit_error : float;
  fc_rows : flowcache_class_row list;
}

let run_flowcache ?config ?queue_model spec g ~hw ~traffic =
  let model =
    Lognic.Flowcache.evaluate ?queue_model spec g ~hw ~traffic
  in
  let config = Option.value config ~default:Netsim.Config.default in
  let config = Netsim.Config.with_flow_cache spec config in
  (* Simulate the *converged* graph: per-packet routing at the cache
     vertices comes from actual lookups either way, but the δs feed the
     reach probabilities that scale per-packet medium bytes, so media
     loads line up with the model's fixed point rather than whatever
     splits the input graph carried. *)
  let measurement =
    Netsim.(execute (Run.single ~config model.Lognic.Flowcache.graph ~hw ~traffic))
  in
  let stats =
    match measurement.Netsim.flow_cache with
    | Some s -> s
    | None -> assert false (* config carried the flow-cache spec *)
  in
  let tp = model.Lognic.Flowcache.throughput in
  let sim_row name =
    Array.to_list stats.Flow_cache.fc_classes
    |> List.find_opt (fun (r : Flow_cache.class_row) ->
           r.Flow_cache.c_name = name)
  in
  let rows =
    List.map
      (fun (c : Lognic.Flowcache.class_report) ->
        let sim = sim_row c.Lognic.Flowcache.klass in
        let delivered f =
          Option.bind sim (fun (r : Flow_cache.class_row) ->
              if_delivered r.Flow_cache.c_count (f r))
        in
        {
          fr_name = c.Lognic.Flowcache.klass;
          fr_model_share = c.Lognic.Flowcache.share;
          fr_sim_share =
            (match sim with
            | Some r -> r.Flow_cache.c_share
            | None -> 0.);
          fr_mean =
            pair ~model:c.Lognic.Flowcache.class_mean
              ~sim:(delivered (fun r -> r.Flow_cache.c_mean_latency));
          fr_model_p99 = c.Lognic.Flowcache.class_p99;
          fr_sim_p99 = delivered (fun r -> r.Flow_cache.c_p99_latency);
        })
      model.Lognic.Flowcache.classes
  in
  (* Hit-ratio agreement is reported as absolute differences: the
     ratios live in [0, 1] and a relative error at a near-zero miss
     share would read as alarming when the caches agree to within a
     fraction of a percent of the traffic. *)
  let abs_err model sim = Float.abs (model -. sim) in
  {
    fc_model = model;
    fc_stats = stats;
    fc_measurement = measurement;
    fc_bottleneck = bound_name g tp.Lognic.Throughput.bottleneck;
    fc_join =
      join ~throughput:tp.Lognic.Throughput.attained
        ~latency:model.Lognic.Flowcache.latency.Lognic.Latency.mean measurement;
    fc_emc_hit_error =
      abs_err model.Lognic.Flowcache.emc_hit_ratio
        stats.Flow_cache.fc_emc_hit_ratio;
    fc_mega_hit_error =
      abs_err model.Lognic.Flowcache.megaflow_hit_ratio
        stats.Flow_cache.fc_mega_hit_ratio;
    fc_overall_hit_error =
      abs_err model.Lognic.Flowcache.overall_hit_ratio
        stats.Flow_cache.fc_overall_hit_ratio;
    fc_rows = rows;
  }

let flowcache_class_to_json r =
  J.Obj
    ([
       ("name", J.Str r.fr_name);
       ("model_share", J.Num r.fr_model_share);
       ("sim_share", J.Num r.fr_sim_share);
     ]
    @ pair_fields "mean_latency" r.fr_mean
    @ [
        ("model_p99_latency", J.Num r.fr_model_p99);
        ("sim_p99_latency", opt_float r.fr_sim_p99);
      ])

let flowcache_to_json t =
  let m = t.fc_model in
  let model, sim, errors = join_json t.fc_join in
  J.versioned ~kind:"flowcache"
    ([
       ( "model",
         J.Obj
           ([
              ("emc_hit_ratio", J.Num m.Lognic.Flowcache.emc_hit_ratio);
              ("megaflow_hit_ratio", J.Num m.Lognic.Flowcache.megaflow_hit_ratio);
              ("overall_hit_ratio", J.Num m.Lognic.Flowcache.overall_hit_ratio);
              ("iterations", J.Num (float_of_int m.Lognic.Flowcache.iterations));
              ("converged", J.Bool m.Lognic.Flowcache.converged);
            ]
           @ model
           @ [ ("bottleneck", J.Str t.fc_bottleneck) ]) );
       ( "sim",
         J.Obj
           ([
              ("emc_hit_ratio", J.Num t.fc_stats.Flow_cache.fc_emc_hit_ratio);
              ("megaflow_hit_ratio", J.Num t.fc_stats.Flow_cache.fc_mega_hit_ratio);
              ("overall_hit_ratio", J.Num t.fc_stats.Flow_cache.fc_overall_hit_ratio);
            ]
           @ sim) );
     ]
    @ errors
    @ [
        ("emc_hit_error", J.Num t.fc_emc_hit_error);
        ("megaflow_hit_error", J.Num t.fc_mega_hit_error);
        ("overall_hit_error", J.Num t.fc_overall_hit_error);
        ("classes", J.Arr (List.map flowcache_class_to_json t.fc_rows));
        ("sim_detail", Flow_cache.stats_to_json t.fc_stats);
      ])

let pp_flowcache ppf t =
  let m = t.fc_model in
  Format.fprintf ppf
    "flow cache: model vs simulation (%d flows, zipf %.2f, emc %d, megaflow \
     %d)@\n"
    t.fc_stats.Flow_cache.fc_flows t.fc_stats.Flow_cache.fc_zipf
    t.fc_stats.Flow_cache.fc_emc_entries
    t.fc_stats.Flow_cache.fc_megaflow_entries;
  Format.fprintf ppf "  fixed point %s in %d iterations@\n"
    (if m.Lognic.Flowcache.converged then "converged" else "DID NOT converge")
    m.Lognic.Flowcache.iterations;
  Format.fprintf ppf
    "  hit ratios  emc: model %.4f sim %.4f (Δ %.4f)   megaflow|miss: model \
     %.4f sim %.4f (Δ %.4f)@\n"
    m.Lognic.Flowcache.emc_hit_ratio t.fc_stats.Flow_cache.fc_emc_hit_ratio
    t.fc_emc_hit_error m.Lognic.Flowcache.megaflow_hit_ratio
    t.fc_stats.Flow_cache.fc_mega_hit_ratio t.fc_mega_hit_error;
  Format.fprintf ppf
    "  overall     model %.4f sim %.4f (Δ %.4f; 1 - slow-path share)@\n"
    m.Lognic.Flowcache.overall_hit_ratio
    t.fc_stats.Flow_cache.fc_overall_hit_ratio t.fc_overall_hit_error;
  pp_join ppf t.fc_join;
  Format.fprintf ppf "  bottleneck  %s@\n" t.fc_bottleneck;
  Format.fprintf ppf "  %-6s %11s %9s %11s %9s %6s %11s %9s@\n" "class"
    "model-share" "sim-share" "model-mean" "sim-mean" "m-err" "model-p99"
    "sim-p99";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "  %-6s %11.4f %9.4f %11.3g %9s %6s %11.3g %9s@\n" r.fr_name
        r.fr_model_share r.fr_sim_share r.fr_mean.model
        (cell "%.3g" r.fr_mean.sim)
        (error_cell "%.0f%%" r.fr_mean)
        r.fr_model_p99 (cell "%.3g" r.fr_sim_p99))
    t.fc_rows
