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

type report = {
  model : Lognic.Estimate.report;
  measurement : Netsim.measurement;
  rows : entity_row list;
  model_bottleneck : string;
  sim_bottleneck : string;
  agree : bool;
  model_throughput : float;
  sim_throughput : float;
  throughput_error : float;
  model_latency : float;
  sim_latency : float;
  latency_error : float;
}

let bound_name g = function
  | Lognic.Throughput.Vertex_bound id -> (G.vertex g id).G.label
  | Lognic.Throughput.Edge_bound (s, d) -> Printf.sprintf "link-%d-%d" s d
  | Lognic.Throughput.Interface_bound -> "interface"
  | Lognic.Throughput.Memory_bound -> "memory"
  | Lognic.Throughput.Resource_bound name -> "resource:" ^ name
  | Lognic.Throughput.Offered_load -> "offered-load"

let relative_error ~model ~sim =
  let scale = Float.max (Float.abs sim) (Float.abs model) in
  if scale <= 0. then 0. else Float.abs (model -. sim) /. scale

(* Mean of a sampled series' values; [None] when nothing was sampled. *)
let series_mean series label =
  List.find_opt (fun s -> Telemetry.Series.label s = label) series
  |> Option.map Telemetry.Series.to_array
  |> fun a ->
  match a with
  | Some samples when Array.length samples > 0 ->
    Some (Lognic_numerics.Stats.mean (Array.map snd samples))
  | _ -> None

(* The join needs sampled queue depths; default the probe interval to
   a fine grid when the caller didn't pick one. *)
let with_default_sampling config =
  let config = Option.value config ~default:Netsim.Config.default in
  match config.Netsim.sample_interval with
  | Some _ -> config
  | None ->
    Netsim.Config.with_sampling (config.duration /. 256.) config

(* The per-entity join shared by [run] and [run_mix]: one row per
   simulated vertex among the caps' vertices, then the interface, the
   memory and each simulated dedicated link, ranked by simulated
   utilization (the top row is the sim bottleneck). Model utilization
   is [attained] over each cap; [vertex_model] supplies a vertex's
   model queueing delay, queue depth and drop probability. *)
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
              sim_queue_depth = series_mean m.Netsim.series (name ^ ".depth");
              model_drop_probability;
              drops = s.drops;
            })
      caps.Lognic.Throughput.vertex_caps
  in
  let shared_medium name cap sim_utilization =
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
      sim_queue_depth = series_mean m.Netsim.series (name ^ ".backlog");
      model_drop_probability = None;
      drops =
        (match medium_row name with Some s -> s.Netsim.m_rejections | None -> 0);
    }
  in
  let medium_rows =
    [
      shared_medium "interface" caps.Lognic.Throughput.interface_cap
        m.Netsim.interface_utilization;
      shared_medium "memory" caps.Lognic.Throughput.memory_cap
        m.Netsim.memory_utilization;
    ]
    @ List.filter_map
        (fun ((s, d), cap) ->
          let name = Printf.sprintf "link-%d-%d" s d in
          Option.map
            (fun (md : Netsim.medium_stats) -> shared_medium name cap md.m_utilization)
            (medium_row name))
        caps.Lognic.Throughput.edge_caps
  in
  let rows =
    List.stable_sort
      (fun a b -> Float.compare b.sim_utilization a.sim_utilization)
      (vertex_rows @ medium_rows)
  in
  (rows, match rows with [] -> "none" | top :: _ -> top.name)

let run ?config ?queue_model g ~hw ~traffic =
  let model = Lognic.Estimate.run ?queue_model g ~hw ~traffic in
  let config = with_default_sampling config in
  let measurement = Netsim.run_single ~config g ~hw ~traffic in
  let tp = model.Lognic.Estimate.throughput in
  let lat = model.Lognic.Estimate.latency in
  let attained = tp.Lognic.Throughput.attained in
  let vertex_model vid =
    let terms =
      List.find_opt
        (fun (t : Lognic.Latency.vertex_terms) -> t.vid = vid)
        lat.Lognic.Latency.per_vertex
    in
    let term f = Option.map f terms in
    ( term (fun t -> t.queueing),
      (* Little's law on the vertex's virtual shared queue: expected
         packets in system = packet arrival rate × (Q + C/A). *)
      term (fun t ->
          let pkt_rate =
            traffic.Lognic.Traffic.rate
            *. Lognic.Throughput.vertex_inflow g vid
            /. traffic.Lognic.Traffic.packet_size
          in
          pkt_rate *. (t.queueing +. t.service)),
      term (fun t -> t.drop_probability) )
  in
  let rows, sim_bottleneck =
    entity_join g measurement tp ~attained ~vertex_model
  in
  let model_bottleneck = bound_name g tp.Lognic.Throughput.bottleneck in
  let sim_throughput = measurement.Netsim.summary.Telemetry.throughput in
  let sim_latency = measurement.Netsim.summary.Telemetry.mean_latency in
  let model_latency = lat.Lognic.Latency.mean in
  {
    model;
    measurement;
    rows;
    model_bottleneck;
    sim_bottleneck;
    agree = String.equal model_bottleneck sim_bottleneck;
    model_throughput = attained;
    sim_throughput;
    throughput_error = relative_error ~model:attained ~sim:sim_throughput;
    model_latency;
    sim_latency;
    latency_error = relative_error ~model:model_latency ~sim:sim_latency;
  }

let opt_float = function None -> J.Null | Some x -> J.Num x

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

let to_json t =
  J.versioned ~kind:"explain"
    [
      ( "model",
        J.Obj
          [
            ("throughput", J.Num t.model_throughput);
            ("latency", J.Num t.model_latency);
            ("bottleneck", J.Str t.model_bottleneck);
          ] );
      ( "sim",
        J.Obj
          [
            ("throughput", J.Num t.sim_throughput);
            ("latency", J.Num t.sim_latency);
            ("bottleneck", J.Str t.sim_bottleneck);
          ] );
      ("agree", J.Bool t.agree);
      ("throughput_error", J.Num t.throughput_error);
      ("latency_error", J.Num t.latency_error);
      ("entities", J.Arr (List.mapi (fun i r -> row_to_json (i + 1) r) t.rows));
    ]

(* The ranked entity table both [pp] and [pp_mix] end with. *)
let pp_rows ppf rows =
  Format.fprintf ppf
    "  %-4s %-16s %9s %9s %9s %11s %9s %6s@\n" "rank" "entity" "model-u"
    "sim-u" "residual" "modelQ(pkt)" "simQ" "drops";
  List.iteri
    (fun i r ->
      let opt = function None -> "-" | Some x -> Printf.sprintf "%.3g" x in
      Format.fprintf ppf "  %-4d %-16s %9.3f %9.3f %+9.3f %11s %9s %6d@\n"
        (i + 1) r.name r.model_utilization r.sim_utilization r.residual
        (opt r.model_queue_depth) (opt r.sim_queue_depth) r.drops)
    rows

let pp ppf t =
  let pct x = 100. *. x in
  Format.fprintf ppf "explain: model vs simulation@\n";
  Format.fprintf ppf
    "  throughput  model %.4g B/s   sim %.4g B/s   error %.1f%%@\n"
    t.model_throughput t.sim_throughput (pct t.throughput_error);
  Format.fprintf ppf
    "  latency     model %.4g s     sim %.4g s     error %.1f%%@\n"
    t.model_latency t.sim_latency (pct t.latency_error);
  Format.fprintf ppf "  bottleneck  model=%s  sim=%s  (%s)@\n"
    t.model_bottleneck t.sim_bottleneck
    (if t.agree then "agree" else "disagree");
  pp_rows ppf t.rows

(* ---- traffic mixes -------------------------------------------------- *)

type class_row = {
  c_traffic : Lognic.Traffic.t;
  c_weight : float;
  c_model_throughput : float;
  c_sim_throughput : float;
  c_throughput_error : float;
  c_model_latency : float;
  c_sim_latency : float option;
  c_latency_error : float option;
  c_model_bottleneck : string;
}

type mix_report = {
  mix_model : Lognic.Extensions.mixed_report;
  mix_measurement : Netsim.measurement;
  class_rows : class_row list;
  mix_rows : entity_row list;
  mix_model_bottleneck : string;
  mix_sim_bottleneck : string;
  mix_agree : bool;
  mix_model_throughput : float;
  mix_sim_throughput : float;
  mix_throughput_error : float;
  mix_model_latency : float;
  mix_sim_latency : float;
  mix_latency_error : float;
}

let run_mix ?config ?queue_model ?contention g ~hw ~mix =
  let model = Lognic.Estimate.run_mix ?queue_model ?contention g ~hw ~mix in
  let config = with_default_sampling config in
  let measurement = Netsim.run ~config g ~hw ~mix in
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
        let c_sim_throughput =
          if window > 0. then
            float_of_int delivered *. cls.packet_size /. window
          else 0.
        in
        let c_sim_latency = if delivered > 0 then Some sim_mean else None in
        {
          c_traffic = cls;
          c_weight = w;
          c_model_throughput = tp.attained;
          c_sim_throughput;
          c_throughput_error =
            relative_error ~model:tp.attained ~sim:c_sim_throughput;
          c_model_latency = lat.mean;
          c_sim_latency;
          c_latency_error =
            Option.map
              (fun sim -> relative_error ~model:lat.mean ~sim)
              c_sim_latency;
          c_model_bottleneck = bound_name g tp.bottleneck;
        })
      classes
  in
  (* Shared-entity view: roofline caps are traffic-independent (Eq 4),
     so one plain evaluation supplies them; the joint utilization is
     the classes' summed carried rate over each cap. Queue depths sum
     per-class Little's-law terms over the union streams. *)
  let first_cls = match classes with (c, _, _, _) :: _ -> c | [] -> assert false in
  let caps = Lognic.Throughput.evaluate g ~hw ~traffic:first_cls in
  let total_attained = model.Lognic.Extensions.throughput in
  let vertex_model vid =
    let per_class_terms =
      List.filter_map
        (fun ((cls : Lognic.Traffic.t), w, _, (lat : Lognic.Latency.result)) ->
          Option.map
            (fun (t : Lognic.Latency.vertex_terms) -> (cls, w, t))
            (List.find_opt
               (fun (t : Lognic.Latency.vertex_terms) -> t.vid = vid)
               lat.Lognic.Latency.per_vertex))
        classes
    in
    let weighted f =
      match per_class_terms with
      | [] -> None
      | terms ->
        Some (List.fold_left (fun acc (_, w, t) -> acc +. (w *. f t)) 0. terms)
    in
    ( weighted (fun (t : Lognic.Latency.vertex_terms) -> t.queueing),
      (match per_class_terms with
      | [] -> None
      | terms ->
        Some
          (List.fold_left
             (fun acc ((cls : Lognic.Traffic.t), _, (t : Lognic.Latency.vertex_terms)) ->
               let pkt_rate =
                 cls.rate *. Lognic.Throughput.vertex_inflow g vid /. cls.packet_size
               in
               acc +. (pkt_rate *. (t.queueing +. t.service)))
             0. terms)),
      weighted (fun (t : Lognic.Latency.vertex_terms) -> t.drop_probability) )
  in
  let mix_rows, mix_sim_bottleneck =
    entity_join g measurement caps ~attained:total_attained ~vertex_model
  in
  (* the joint model bottleneck: the bound of the class with the
     tightest capacity, the mix-level analogue of [report.model_bottleneck] *)
  let mix_model_bottleneck =
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
  let mix_sim_throughput = summary.Telemetry.throughput in
  let mix_sim_latency = summary.Telemetry.mean_latency in
  let mix_model_latency = model.Lognic.Extensions.latency in
  {
    mix_model = model;
    mix_measurement = measurement;
    class_rows;
    mix_rows;
    mix_model_bottleneck;
    mix_sim_bottleneck;
    mix_agree = String.equal mix_model_bottleneck mix_sim_bottleneck;
    mix_model_throughput = total_attained;
    mix_sim_throughput;
    mix_throughput_error =
      relative_error ~model:total_attained ~sim:mix_sim_throughput;
    mix_model_latency;
    mix_sim_latency;
    mix_latency_error =
      relative_error ~model:mix_model_latency ~sim:mix_sim_latency;
  }

let class_row_to_json i r =
  J.Obj
    [
      ("class", J.Num (float_of_int i));
      ("rate", J.Num r.c_traffic.Lognic.Traffic.rate);
      ("packet_size", J.Num r.c_traffic.Lognic.Traffic.packet_size);
      ("weight", J.Num r.c_weight);
      ("model_throughput", J.Num r.c_model_throughput);
      ("sim_throughput", J.Num r.c_sim_throughput);
      ("throughput_error", J.Num r.c_throughput_error);
      ("model_latency", J.Num r.c_model_latency);
      ("sim_latency", opt_float r.c_sim_latency);
      ("latency_error", opt_float r.c_latency_error);
      ("model_bottleneck", J.Str r.c_model_bottleneck);
    ]

let mix_to_json t =
  J.versioned ~kind:"explain"
    [
      ( "model",
        J.Obj
          [
            ("throughput", J.Num t.mix_model_throughput);
            ("latency", J.Num t.mix_model_latency);
            ("bottleneck", J.Str t.mix_model_bottleneck);
          ] );
      ( "sim",
        J.Obj
          [
            ("throughput", J.Num t.mix_sim_throughput);
            ("latency", J.Num t.mix_sim_latency);
            ("bottleneck", J.Str t.mix_sim_bottleneck);
          ] );
      ("agree", J.Bool t.mix_agree);
      ("throughput_error", J.Num t.mix_throughput_error);
      ("latency_error", J.Num t.mix_latency_error);
      ( "classes",
        J.Arr (List.mapi (fun i r -> class_row_to_json i r) t.class_rows) );
      ( "entities",
        J.Arr (List.mapi (fun i r -> row_to_json (i + 1) r) t.mix_rows) );
    ]

let pp_mix ppf t =
  let pct x = 100. *. x in
  Format.fprintf ppf "explain: model vs simulation (%d-class mix)@\n"
    (List.length t.class_rows);
  Format.fprintf ppf
    "  throughput  model %.4g B/s   sim %.4g B/s   error %.1f%%@\n"
    t.mix_model_throughput t.mix_sim_throughput (pct t.mix_throughput_error);
  Format.fprintf ppf
    "  latency     model %.4g s     sim %.4g s     error %.1f%%@\n"
    t.mix_model_latency t.mix_sim_latency (pct t.mix_latency_error);
  Format.fprintf ppf "  bottleneck  model=%s  sim=%s  (%s)@\n"
    t.mix_model_bottleneck t.mix_sim_bottleneck
    (if t.mix_agree then "agree" else "disagree");
  Format.fprintf ppf "  %-5s %9s %7s %12s %12s %8s %12s %12s %8s@\n" "class"
    "size" "weight" "model-tput" "sim-tput" "t-err" "model-lat" "sim-lat"
    "l-err";
  List.iteri
    (fun i r ->
      let opt = function None -> "-" | Some x -> Printf.sprintf "%.4g" x in
      let opt_pct = function
        | None -> "-"
        | Some x -> Printf.sprintf "%.1f%%" (pct x)
      in
      Format.fprintf ppf "  %-5d %9.0f %7.3f %12.4g %12.4g %7.1f%% %12.4g %12s %8s@\n"
        i r.c_traffic.Lognic.Traffic.packet_size r.c_weight
        r.c_model_throughput r.c_sim_throughput
        (pct r.c_throughput_error) r.c_model_latency (opt r.c_sim_latency)
        (opt_pct r.c_latency_error))
    t.class_rows;
  pp_rows ppf t.mix_rows

(* ---- tenants -------------------------------------------------------- *)

type tenant_row = {
  tn_name : string;
  tn_weight : int;
  tn_share : float;
  tn_model_throughput : float;
  tn_sim_throughput : float;
  tn_throughput_error : float;
  tn_model_latency : float;
  tn_sim_latency : float option;
  tn_latency_error : float option;
  tn_model_blocking : float option;
  tn_slo_p99 : float option;
  tn_slo_ok : bool option;
}

type tenant_report = {
  tr_stats : Tenant.stats;
  tr_measurement : Netsim.measurement;
  tr_rows : tenant_row list;
  tr_model_bottleneck : string;
  tr_differentiated : bool;
  tr_model_throughput : float;
  tr_sim_throughput : float;
  tr_throughput_error : float;
  tr_model_latency : float;
  tr_sim_latency : float;
  tr_latency_error : float;
  tr_fairness : Tenant.fairness;
}

let run_tenants ?config ?queue_model g ~hw ~traffic ~tenants =
  let model = Lognic.Estimate.run ?queue_model g ~hw ~traffic in
  let config = Option.value config ~default:Netsim.Config.default in
  let config = Netsim.Config.with_tenants tenants config in
  let measurement = Netsim.run_single ~config g ~hw ~traffic in
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
               let latency =
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
           let sim_latency =
             if r.Tenant.r_delivered > 0 then Some r.Tenant.r_mean_latency
             else None
           in
           {
             tn_name = r.Tenant.r_name;
             tn_weight = r.Tenant.r_weight;
             tn_share = r.Tenant.r_share;
             tn_model_throughput = model_throughput;
             tn_sim_throughput = r.Tenant.r_throughput;
             tn_throughput_error =
               relative_error ~model:model_throughput
                 ~sim:r.Tenant.r_throughput;
             tn_model_latency = model_latency;
             tn_sim_latency = sim_latency;
             tn_latency_error =
               Option.map
                 (fun sim -> relative_error ~model:model_latency ~sim)
                 sim_latency;
             tn_model_blocking = model_blocking;
             tn_slo_p99 = r.Tenant.r_slo_p99;
             tn_slo_ok = r.Tenant.r_slo_ok;
           })
         stats.Tenant.rows)
  in
  let sim_throughput = measurement.Netsim.summary.Telemetry.throughput in
  let sim_latency = measurement.Netsim.summary.Telemetry.mean_latency in
  {
    tr_stats = stats;
    tr_measurement = measurement;
    tr_rows = rows;
    tr_model_bottleneck = bound_name g tp.Lognic.Throughput.bottleneck;
    tr_differentiated = per_tenant <> None;
    tr_model_throughput = attained;
    tr_sim_throughput = sim_throughput;
    tr_throughput_error = relative_error ~model:attained ~sim:sim_throughput;
    tr_model_latency = agg_latency;
    tr_sim_latency = sim_latency;
    tr_latency_error = relative_error ~model:agg_latency ~sim:sim_latency;
    tr_fairness = stats.Tenant.t_fairness;
  }

let opt_bool = function None -> J.Null | Some b -> J.Bool b

let tenant_row_to_json r =
  J.Obj
    [
      ("name", J.Str r.tn_name);
      ("weight", J.Num (float_of_int r.tn_weight));
      ("share", J.Num r.tn_share);
      ("model_throughput", J.Num r.tn_model_throughput);
      ("sim_throughput", J.Num r.tn_sim_throughput);
      ("throughput_error", J.Num r.tn_throughput_error);
      ("model_latency", J.Num r.tn_model_latency);
      ("sim_latency", opt_float r.tn_sim_latency);
      ("latency_error", opt_float r.tn_latency_error);
      ("model_blocking", opt_float r.tn_model_blocking);
      ("slo_p99", opt_float r.tn_slo_p99);
      ("slo_ok", opt_bool r.tn_slo_ok);
    ]

let tenants_to_json t =
  J.versioned ~kind:"tenants"
    [
      ( "model",
        J.Obj
          [
            ("throughput", J.Num t.tr_model_throughput);
            ("latency", J.Num t.tr_model_latency);
            ("bottleneck", J.Str t.tr_model_bottleneck);
            ("differentiated", J.Bool t.tr_differentiated);
          ] );
      ( "sim",
        J.Obj
          [
            ("throughput", J.Num t.tr_sim_throughput);
            ("latency", J.Num t.tr_sim_latency);
          ] );
      ("throughput_error", J.Num t.tr_throughput_error);
      ("latency_error", J.Num t.tr_latency_error);
      ("tenants", J.Arr (List.map tenant_row_to_json t.tr_rows));
      ("sim_detail", Tenant.stats_to_json t.tr_stats);
    ]

let pp_tenants ppf t =
  let pct x = 100. *. x in
  Format.fprintf ppf "tenants: model vs simulation (%d tenants)@\n"
    (List.length t.tr_rows);
  Format.fprintf ppf
    "  throughput  model %.4g B/s   sim %.4g B/s   error %.1f%%@\n"
    t.tr_model_throughput t.tr_sim_throughput (pct t.tr_throughput_error);
  Format.fprintf ppf
    "  latency     model %.4g s     sim %.4g s     error %.1f%%@\n"
    t.tr_model_latency t.tr_sim_latency (pct t.tr_latency_error);
  Format.fprintf ppf "  bottleneck  %s (per-tenant model: %s)@\n"
    t.tr_model_bottleneck
    (if t.tr_differentiated then "weighted M/M/c/N" else "undifferentiated");
  Format.fprintf ppf
    "  fairness    maxmin %.3f   jain %.3f   interference %.2f@\n"
    t.tr_fairness.Tenant.maxmin_ratio t.tr_fairness.Tenant.jain
    t.tr_fairness.Tenant.interference;
  Format.fprintf ppf "  %-12s %3s %6s %12s %12s %6s %10s %10s %6s %5s@\n"
    "tenant" "w" "share" "model-tput" "sim-tput" "t-err" "model-lat"
    "sim-lat" "l-err" "slo";
  List.iter
    (fun r ->
      let opt = function None -> "-" | Some x -> Printf.sprintf "%.3g" x in
      let opt_pct = function
        | None -> "-"
        | Some x -> Printf.sprintf "%.0f%%" (pct x)
      in
      let slo =
        match r.tn_slo_ok with
        | None -> "-"
        | Some true -> "ok"
        | Some false -> "MISS"
      in
      Format.fprintf ppf
        "  %-12s %3d %6.3f %12.4g %12.4g %5.0f%% %10.3g %10s %6s %5s@\n"
        r.tn_name r.tn_weight r.tn_share r.tn_model_throughput
        r.tn_sim_throughput (pct r.tn_throughput_error) r.tn_model_latency
        (opt r.tn_sim_latency) (opt_pct r.tn_latency_error) slo)
    t.tr_rows

(* ---- flow cache ------------------------------------------------------ *)

type flowcache_class_row = {
  fr_name : string;  (* hot / warm / cold *)
  fr_model_share : float;
  fr_sim_share : float;
  fr_model_mean : float;
  fr_sim_mean : float option;
  fr_mean_error : float option;
  fr_model_p99 : float;
  fr_sim_p99 : float option;
}

type flowcache_report = {
  fc_model : Lognic.Flowcache.result;
  fc_stats : Flow_cache.stats;
  fc_measurement : Netsim.measurement;
  fc_bottleneck : string;
  fc_model_throughput : float;
  fc_sim_throughput : float;
  fc_throughput_error : float;
  fc_model_latency : float;
  fc_sim_latency : float;
  fc_latency_error : float;
  fc_emc_hit_error : float;
  fc_mega_hit_error : float;
  fc_overall_hit_error : float;
  fc_rows : flowcache_class_row list;
}

let run_flowcache ?config ?queue_model spec g ~hw ~traffic =
  let model =
    Lognic.Estimate.run_flowcache ?queue_model spec g ~hw ~traffic
  in
  let config = Option.value config ~default:Netsim.Config.default in
  let config = Netsim.Config.with_flow_cache spec config in
  (* Simulate the *converged* graph: per-packet routing at the cache
     vertices comes from actual lookups either way, but the δs feed the
     reach probabilities that scale per-packet medium bytes, so media
     loads line up with the model's fixed point rather than whatever
     splits the input graph carried. *)
  let measurement =
    Netsim.run_single ~config model.Lognic.Flowcache.graph ~hw ~traffic
  in
  let stats =
    match measurement.Netsim.flow_cache with
    | Some s -> s
    | None -> assert false (* config carried the flow-cache spec *)
  in
  let tp = model.Lognic.Flowcache.throughput in
  let attained = tp.Lognic.Throughput.attained in
  let model_latency = model.Lognic.Flowcache.latency.Lognic.Latency.mean in
  let sim_throughput = measurement.Netsim.summary.Telemetry.throughput in
  let sim_latency = measurement.Netsim.summary.Telemetry.mean_latency in
  let sim_row name =
    Array.to_list stats.Flow_cache.fc_classes
    |> List.find_opt (fun (r : Flow_cache.class_row) ->
           r.Flow_cache.c_name = name)
  in
  let rows =
    List.map
      (fun (c : Lognic.Flowcache.class_report) ->
        let sim = sim_row c.Lognic.Flowcache.klass in
        let sim_mean =
          Option.bind sim (fun (r : Flow_cache.class_row) ->
              if r.Flow_cache.c_count > 0 then Some r.Flow_cache.c_mean_latency
              else None)
        in
        {
          fr_name = c.Lognic.Flowcache.klass;
          fr_model_share = c.Lognic.Flowcache.share;
          fr_sim_share =
            (match sim with
            | Some r -> r.Flow_cache.c_share
            | None -> 0.);
          fr_model_mean = c.Lognic.Flowcache.class_mean;
          fr_sim_mean = sim_mean;
          fr_mean_error =
            Option.map
              (fun sim -> relative_error ~model:c.Lognic.Flowcache.class_mean ~sim)
              sim_mean;
          fr_model_p99 = c.Lognic.Flowcache.class_p99;
          fr_sim_p99 =
            Option.bind sim (fun (r : Flow_cache.class_row) ->
                if r.Flow_cache.c_count > 0 then Some r.Flow_cache.c_p99_latency
                else None);
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
    fc_model_throughput = attained;
    fc_sim_throughput = sim_throughput;
    fc_throughput_error = relative_error ~model:attained ~sim:sim_throughput;
    fc_model_latency = model_latency;
    fc_sim_latency = sim_latency;
    fc_latency_error = relative_error ~model:model_latency ~sim:sim_latency;
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
    [
      ("name", J.Str r.fr_name);
      ("model_share", J.Num r.fr_model_share);
      ("sim_share", J.Num r.fr_sim_share);
      ("model_mean_latency", J.Num r.fr_model_mean);
      ("sim_mean_latency", opt_float r.fr_sim_mean);
      ("mean_latency_error", opt_float r.fr_mean_error);
      ("model_p99_latency", J.Num r.fr_model_p99);
      ("sim_p99_latency", opt_float r.fr_sim_p99);
    ]

let flowcache_to_json t =
  let m = t.fc_model in
  J.versioned ~kind:"flowcache"
    [
      ( "model",
        J.Obj
          [
            ("emc_hit_ratio", J.Num m.Lognic.Flowcache.emc_hit_ratio);
            ("megaflow_hit_ratio", J.Num m.Lognic.Flowcache.megaflow_hit_ratio);
            ("overall_hit_ratio", J.Num m.Lognic.Flowcache.overall_hit_ratio);
            ("iterations", J.Num (float_of_int m.Lognic.Flowcache.iterations));
            ("converged", J.Bool m.Lognic.Flowcache.converged);
            ("throughput", J.Num t.fc_model_throughput);
            ("latency", J.Num t.fc_model_latency);
            ("bottleneck", J.Str t.fc_bottleneck);
          ] );
      ( "sim",
        J.Obj
          [
            ("emc_hit_ratio", J.Num t.fc_stats.Flow_cache.fc_emc_hit_ratio);
            ("megaflow_hit_ratio", J.Num t.fc_stats.Flow_cache.fc_mega_hit_ratio);
            ("overall_hit_ratio", J.Num t.fc_stats.Flow_cache.fc_overall_hit_ratio);
            ("throughput", J.Num t.fc_sim_throughput);
            ("latency", J.Num t.fc_sim_latency);
          ] );
      ("throughput_error", J.Num t.fc_throughput_error);
      ("latency_error", J.Num t.fc_latency_error);
      ("emc_hit_error", J.Num t.fc_emc_hit_error);
      ("megaflow_hit_error", J.Num t.fc_mega_hit_error);
      ("overall_hit_error", J.Num t.fc_overall_hit_error);
      ("classes", J.Arr (List.map flowcache_class_to_json t.fc_rows));
      ("sim_detail", Flow_cache.stats_to_json t.fc_stats);
    ]

let pp_flowcache ppf t =
  let m = t.fc_model in
  let pct x = 100. *. x in
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
  Format.fprintf ppf
    "  throughput  model %.4g B/s   sim %.4g B/s   error %.1f%%@\n"
    t.fc_model_throughput t.fc_sim_throughput (pct t.fc_throughput_error);
  Format.fprintf ppf
    "  latency     model %.4g s     sim %.4g s     error %.1f%%@\n"
    t.fc_model_latency t.fc_sim_latency (pct t.fc_latency_error);
  Format.fprintf ppf "  bottleneck  %s@\n" t.fc_bottleneck;
  Format.fprintf ppf "  %-6s %11s %9s %11s %9s %6s %11s %9s@\n" "class"
    "model-share" "sim-share" "model-mean" "sim-mean" "m-err" "model-p99"
    "sim-p99";
  List.iter
    (fun r ->
      let opt = function None -> "-" | Some x -> Printf.sprintf "%.3g" x in
      let opt_pct = function
        | None -> "-"
        | Some x -> Printf.sprintf "%.0f%%" (pct x)
      in
      Format.fprintf ppf
        "  %-6s %11.4f %9.4f %11.3g %9s %6s %11.3g %9s@\n" r.fr_name
        r.fr_model_share r.fr_sim_share r.fr_model_mean (opt r.fr_sim_mean)
        (opt_pct r.fr_mean_error) r.fr_model_p99 (opt r.fr_sim_p99))
    t.fc_rows
