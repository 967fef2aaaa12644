type queue_model = Mm1n_model | Mmcn_model | Mm1_model | No_queueing

type vertex_terms = {
  vid : Graph.vertex_id;
  queueing : float;
  service : float;
  utilization : float;
  drop_probability : float;
  sojourn : float * float;
}

type path_report = {
  path : Graph.vertex_id list;
  weight : float;
  total : float;
  queueing : float;
  service : float;
  overhead : float;
  transfer : float;
}

type result = {
  mean : float;
  per_path : path_report list;
  per_vertex : vertex_terms list;
  carried_rate : float;
}

(* indeg is 0 for ingress vertices; the formulas treat every vertex as fed
   by at least one logical edge. *)
let effective_indegree g id = max 1 (Graph.in_degree g id)

let vertex_service_time g ~(traffic : Traffic.t) id =
  let v = Graph.vertex g id in
  if v.service.throughput = infinity then 0.
  else
    let inflow = Throughput.vertex_inflow g id in
    if inflow <= 0. then 0.
    else
      let d = float_of_int v.service.parallelism in
      let indeg = float_of_int (effective_indegree g id) in
      let t =
        d *. traffic.packet_size *. inflow
        /. (Graph.effective_rate v.service *. indeg)
      in
      if Float.is_finite t then t
      else Graph.unservable v ~packet_size:traffic.packet_size

let vertex_rates g ~(traffic : Traffic.t) id =
  (* (lambda, mu) of the vertex's virtual shared queue, per Eq 11. *)
  let v = Graph.vertex g id in
  let inflow = Throughput.vertex_inflow g id in
  let d = float_of_int v.service.parallelism in
  let indeg = float_of_int (effective_indegree g id) in
  let lambda = traffic.rate *. indeg /. (d *. traffic.packet_size) in
  let mu =
    Graph.effective_rate v.service *. indeg
    /. (d *. traffic.packet_size *. inflow)
  in
  (lambda, mu)

(* The queue-model dispatch given a vertex's (lambda, mu): the shared
   tail of [vertex_terms] and of the joint multi-class evaluation, which
   feeds it union arrival rates and mixture service rates instead of the
   single-class Eq 11 values. One solve per vertex; the ablations keep
   M/M/1/N's sojourn moments for the tail. *)
let terms_of_rates ?(model = Mm1n_model) g id ~service ~lambda ~mu =
  let v = Graph.vertex g id in
  let utilization = lambda /. mu in
  let terms ~queueing ~drop_probability (s : Lognic_queueing.Mm1n.solution) =
    { vid = id; queueing; service; utilization; drop_probability; sojourn = s.sojourn }
  in
  let mm1n () =
    Lognic_queueing.Mm1n.solve
      (Lognic_queueing.Mm1n.create ~lambda ~mu ~capacity:v.service.queue_capacity)
  in
  match model with
  | No_queueing -> terms ~queueing:0. ~drop_probability:0. (mm1n ())
  | Mm1_model ->
    let q =
      if utilization >= 1. then infinity
      else Lognic_queueing.Mm1.mean_waiting_time (Lognic_queueing.Mm1.create ~lambda ~mu)
    in
    terms ~queueing:q ~drop_probability:0. (mm1n ())
  | Mm1n_model ->
    let s = mm1n () in
    terms ~queueing:s.waiting ~drop_probability:s.blocking s
  | Mmcn_model ->
    (* Undo Eq 11's division of the arrival stream across D
       per-engine queues: the exact multi-server queue sees the whole
       stream with D servers of rate 1/C each. *)
    let d = float_of_int v.service.parallelism in
    let capacity = max v.service.queue_capacity v.service.parallelism in
    let s =
      Lognic_queueing.Mmcn.solve
        (Lognic_queueing.Mmcn.create ~lambda:(lambda *. d) ~mu
           ~servers:v.service.parallelism ~capacity)
    in
    terms ~queueing:s.waiting ~drop_probability:s.blocking s

let vertex_terms ?model g ~traffic id =
  let v = Graph.vertex g id in
  let service = vertex_service_time g ~traffic id in
  if v.service.throughput = infinity || Throughput.vertex_inflow g id <= 0. then
    { vid = id; queueing = 0.; service; utilization = 0.; drop_probability = 0.;
      sojourn = (0., 0.) }
  else
    let lambda, mu = vertex_rates g ~traffic id in
    terms_of_rates ?model g id ~service ~lambda ~mu

let edge_transfer_time g ~(hw : Params.hardware) ~(traffic : Traffic.t)
    (e : Graph.edge) =
  ignore g;
  let interface_time = traffic.packet_size *. e.alpha /. hw.bw_interface in
  let memory_time = traffic.packet_size *. e.beta /. hw.bw_memory in
  let link_time =
    match e.bandwidth with
    | Some bw -> traffic.packet_size *. e.delta /. bw
    | None -> 0.
  in
  interface_time +. memory_time +. link_time

let path_weights g =
  let raw =
    List.map
      (fun path ->
        (* weight = product of delta branching fractions at each hop *)
        let rec hop_weight acc = function
          | a :: (b :: _ as rest) ->
            let outs = Graph.out_edges g a in
            let total = List.fold_left (fun s (e : Graph.edge) -> s +. e.delta) 0. outs in
            let frac =
              match Graph.edge g ~src:a ~dst:b with
              | Some e when total > 0. -> e.delta /. total
              | Some _ | None -> 0.
            in
            hop_weight (acc *. frac) rest
          | [ _ ] | [] -> acc
        in
        (path, hop_weight 1. path))
      (* Degrade on combinatorial graphs instead of failing: the first
         10k paths in enumeration order, weights renormalized below, so
         the mean is a top-K approximation rather than an exception. *)
      (fst (Graph.paths_capped g))
  in
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. raw in
  if total <= 0. then raw
  else List.map (fun (p, w) -> (p, w /. total)) raw

let evaluate_with ~term_of:(uncached : Graph.vertex_id -> vertex_terms) g ~hw
    ~(traffic : Traffic.t) =
  (match Graph.validate g with
  | Ok () -> ()
  | Error errors ->
    invalid_arg ("Latency: invalid graph: " ^ String.concat "; " errors));
  let weighted_paths = path_weights g in
  if weighted_paths = [] then invalid_arg "Latency: no ingress->egress path";
  let terms = Hashtbl.create 16 in
  let term_of id =
    match Hashtbl.find_opt terms id with
    | Some t -> t
    | None ->
      let t = uncached id in
      Hashtbl.add terms id t;
      t
  in
  let report_of_path (path, weight) =
    let rec walk q s o tr = function
      | a :: (b :: _ as rest) ->
        let t = term_of a in
        let overhead = (Graph.vertex g a).service.overhead in
        let transfer =
          match Graph.edge g ~src:a ~dst:b with
          | Some e -> edge_transfer_time g ~hw ~traffic e
          | None -> 0.
        in
        walk (q +. t.queueing) (s +. t.service) (o +. overhead) (tr +. transfer)
          rest
      | [ last ] ->
        let t = term_of last in
        (q +. t.queueing, s +. t.service, o, tr)
      | [] -> (q, s, o, tr)
    in
    let queueing, service, overhead, transfer = walk 0. 0. 0. 0. path in
    {
      path;
      weight;
      total = queueing +. service +. overhead +. transfer;
      queueing;
      service;
      overhead;
      transfer;
    }
  in
  let per_path = List.map report_of_path weighted_paths in
  let mean = List.fold_left (fun acc r -> acc +. (r.weight *. r.total)) 0. per_path in
  let per_vertex =
    List.filter_map
      (fun (v : Graph.vertex) -> Hashtbl.find_opt terms v.id)
      (Graph.vertices g)
  in
  let carried_rate =
    (* survival probability along each path, weighted by path share *)
    let survival =
      List.fold_left
        (fun acc r ->
          let keep =
            List.fold_left
              (fun keep id -> keep *. (1. -. (term_of id).drop_probability))
              1. r.path
          in
          acc +. (r.weight *. keep))
        0. per_path
    in
    traffic.rate *. survival
  in
  { mean; per_path; per_vertex; carried_rate }

let evaluate ?(model = Mm1n_model) g ~hw ~traffic =
  evaluate_with ~term_of:(fun id -> vertex_terms ~model g ~traffic id) g ~hw
    ~traffic

let pp_result ppf r =
  Fmt.pf ppf "@[<v>mean latency: %.2f us@,carried rate: %.3f Gbps"
    (Units.to_usec r.mean)
    (Units.to_gbps r.carried_rate);
  List.iter
    (fun p ->
      Fmt.pf ppf
        "@,path [%a] w=%.3f total=%.2fus (queue %.2f, service %.2f, overhead \
         %.2f, transfer %.2f)"
        Fmt.(list ~sep:(any "->") int)
        p.path p.weight (Units.to_usec p.total) (Units.to_usec p.queueing)
        (Units.to_usec p.service) (Units.to_usec p.overhead)
        (Units.to_usec p.transfer))
    r.per_path;
  Fmt.pf ppf "@]"
