type parameter =
  | P_vertex of Graph.vertex_id
  | Bw_interface
  | Bw_memory
  | Offered_rate

type elasticity = {
  parameter : parameter;
  throughput_elasticity : float;
  latency_elasticity : float;
}

let scaled_inputs parameter factor g (hw : Params.hardware) (traffic : Traffic.t) =
  match parameter with
  | P_vertex id ->
    let g =
      Graph.update_service g id (fun s ->
          { s with Graph.throughput = s.Graph.throughput *. factor })
    in
    (g, hw, traffic)
  | Bw_interface ->
    (g, Params.hardware ~bw_interface:(hw.bw_interface *. factor) ~bw_memory:hw.bw_memory, traffic)
  | Bw_memory ->
    (g, Params.hardware ~bw_interface:hw.bw_interface ~bw_memory:(hw.bw_memory *. factor), traffic)
  | Offered_rate -> (g, hw, { traffic with Traffic.rate = traffic.Traffic.rate *. factor })

let outputs ?queue_model g ~hw ~traffic =
  let report = Estimate.run ?queue_model g ~hw ~traffic in
  (Estimate.goodput report, report.latency.Latency.mean)

(* Relative step of the central differences. *)
let step = 0.02

let elasticity_of ?queue_model g ~hw ~traffic parameter =
  let eval factor =
    let g, hw, traffic = scaled_inputs parameter factor g hw traffic in
    outputs ?queue_model g ~hw ~traffic
  in
  let up_t, up_l = eval (1. +. step) in
  let down_t, down_l = eval (1. -. step) in
  (* central difference of ln(output) w.r.t. ln(parameter) *)
  let log_slope up down =
    if up <= 0. || down <= 0. || not (Float.is_finite up && Float.is_finite down)
    then 0.
    else (log up -. log down) /. (log (1. +. step) -. log (1. -. step))
  in
  {
    parameter;
    throughput_elasticity = log_slope up_t down_t;
    latency_elasticity = log_slope up_l down_l;
  }

let analyze ?queue_model ?jobs g ~hw ~traffic =
  (match Graph.validate g with
  | Ok () -> ()
  | Error errors ->
    invalid_arg ("Sensitivity: invalid graph: " ^ String.concat "; " errors));
  let vertex_params =
    List.filter_map
      (fun (v : Graph.vertex) ->
        if v.service.throughput < infinity then Some (P_vertex v.id) else None)
      (Graph.vertices g)
  in
  (* Each parameter's two model evaluations are independent; fan them
     out over the domain pool (order-preserving, so the report rows
     stay stable). *)
  Lognic_numerics.Parallel.map ?jobs
    (elasticity_of ?queue_model g ~hw ~traffic)
    (vertex_params @ [ Bw_interface; Bw_memory; Offered_rate ])

let most_binding elasticities =
  match
    List.fold_left
      (fun best e ->
        match best with
        | None -> Some e
        | Some b ->
          if e.throughput_elasticity > b.throughput_elasticity then Some e else best)
      None elasticities
  with
  | Some e -> e.parameter
  | None -> invalid_arg "Sensitivity.most_binding: empty list"

let pp_parameter g ppf = function
  | P_vertex id -> Fmt.pf ppf "P[%s]" (Graph.vertex g id).label
  | Bw_interface -> Fmt.string ppf "BW_INTF"
  | Bw_memory -> Fmt.string ppf "BW_MEM"
  | Offered_rate -> Fmt.string ppf "BW_in"
