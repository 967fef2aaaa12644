type bound =
  | Vertex_bound of Graph.vertex_id
  | Edge_bound of Graph.vertex_id * Graph.vertex_id
  | Interface_bound
  | Memory_bound
  | Resource_bound of string
  | Offered_load

type result = {
  capacity : float;
  attained : float;
  bottleneck : bound;
  vertex_caps : (Graph.vertex_id * float) list;
  edge_caps : ((Graph.vertex_id * Graph.vertex_id) * float) list;
  interface_cap : float;
  memory_cap : float;
}

let vertex_inflow g id =
  match (Graph.vertex g id).kind with
  | Graph.Ingress -> 1.
  | Graph.Egress | Graph.Ip ->
    List.fold_left (fun acc (e : Graph.edge) -> acc +. e.delta) 0. (Graph.in_edges g id)

let require_valid g =
  match Graph.validate g with
  | Ok () -> ()
  | Error errors ->
    invalid_arg ("Throughput: invalid graph: " ^ String.concat "; " errors)

let compute_caps g ~(hw : Params.hardware) =
  let vertex_caps =
    List.filter_map
      (fun (v : Graph.vertex) ->
        let inflow = vertex_inflow g v.id in
        if inflow <= 0. || v.service.throughput = infinity then None
        else
          Some (v.id, Graph.effective_rate v.service /. inflow))
      (Graph.vertices g)
  in
  let edge_caps =
    List.filter_map
      (fun (e : Graph.edge) ->
        match e.bandwidth with
        | Some bw when e.delta > 0. -> Some ((e.src, e.dst), bw /. e.delta)
        | Some _ | None -> None)
      (Graph.edges g)
  in
  let sum_alpha =
    List.fold_left (fun acc (e : Graph.edge) -> acc +. e.alpha) 0. (Graph.edges g)
  in
  let sum_beta =
    List.fold_left (fun acc (e : Graph.edge) -> acc +. e.beta) 0. (Graph.edges g)
  in
  let interface_cap =
    if sum_alpha > 0. then hw.bw_interface /. sum_alpha else infinity
  in
  let memory_cap = if sum_beta > 0. then hw.bw_memory /. sum_beta else infinity in
  (vertex_caps, edge_caps, interface_cap, memory_cap)

let evaluate g ~hw ~(traffic : Traffic.t) =
  require_valid g;
  let vertex_caps, edge_caps, interface_cap, memory_cap = compute_caps g ~hw in
  (* Enumerate every candidate bound in priority order; the fold keeps
     the first strictly-smaller one, so ties resolve deterministically. *)
  let candidates =
    List.map (fun (id, c) -> (Vertex_bound id, c)) vertex_caps
    @ List.map (fun ((s, d), c) -> (Edge_bound (s, d), c)) edge_caps
    @ [ (Interface_bound, interface_cap); (Memory_bound, memory_cap) ]
  in
  let capacity =
    List.fold_left (fun acc (_, c) -> Float.min acc c) infinity candidates
  in
  let attained = Float.min capacity traffic.rate in
  let bottleneck =
    if capacity <= traffic.rate then
      match List.find_opt (fun (_, c) -> c <= capacity) candidates with
      | Some (b, _) -> b
      | None -> Offered_load
    else Offered_load
  in
  {
    capacity;
    attained;
    bottleneck;
    vertex_caps;
    edge_caps;
    interface_cap;
    memory_cap;
  }

let capacity g ~hw =
  require_valid g;
  let vertex_caps, edge_caps, interface_cap, memory_cap = compute_caps g ~hw in
  List.fold_left
    (fun acc (_, c) -> Float.min acc c)
    (Float.min interface_cap memory_cap)
    (List.map (fun (_, c) -> ((), c)) vertex_caps
    @ List.map (fun (_, c) -> ((), c)) edge_caps)

let pp_bound g ppf = function
  | Vertex_bound id ->
    Fmt.pf ppf "vertex %d (%s)" id (Graph.vertex g id).label
  | Edge_bound (s, d) -> Fmt.pf ppf "edge %d->%d" s d
  | Interface_bound -> Fmt.string ppf "shared interface bandwidth"
  | Memory_bound -> Fmt.string ppf "memory bandwidth"
  | Resource_bound name -> Fmt.pf ppf "shared resource %s" name
  | Offered_load -> Fmt.string ppf "offered load (ingress rate)"

let pp_result g ppf r =
  Fmt.pf ppf "@[<v>capacity: %.3f Gbps@,attained: %.3f Gbps@,bottleneck: %a"
    (Units.to_gbps r.capacity) (Units.to_gbps r.attained) (pp_bound g)
    r.bottleneck;
  List.iter
    (fun (id, c) ->
      Fmt.pf ppf "@,  vertex %d (%s) cap: %.3f Gbps" id (Graph.vertex g id).label
        (Units.to_gbps c))
    r.vertex_caps;
  List.iter
    (fun ((s, d), c) ->
      Fmt.pf ppf "@,  edge %d->%d cap: %.3f Gbps" s d (Units.to_gbps c))
    r.edge_caps;
  if r.interface_cap < infinity then
    Fmt.pf ppf "@,  interface cap: %.3f Gbps" (Units.to_gbps r.interface_cap);
  if r.memory_cap < infinity then
    Fmt.pf ppf "@,  memory cap: %.3f Gbps" (Units.to_gbps r.memory_cap);
  Fmt.pf ppf "@]"
