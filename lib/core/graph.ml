type vertex_id = int
type kind = Ingress | Egress | Ip

type service = {
  throughput : float;
  parallelism : int;
  queue_capacity : int;
  overhead : float;
  accel : float;
  partition : float;
}

let default_service =
  {
    throughput = infinity;
    parallelism = 1;
    queue_capacity = 64;
    overhead = 0.;
    accel = 1.;
    partition = 1.;
  }

let effective_rate s = s.partition *. s.accel *. s.throughput

let service ?(parallelism = 1) ?(queue_capacity = 64) ?(overhead = 0.)
    ?(accel = 1.) ?(partition = 1.) ~throughput () =
  if throughput <= 0. then invalid_arg "Graph.service: throughput must be > 0";
  if parallelism < 1 then invalid_arg "Graph.service: parallelism must be >= 1";
  if queue_capacity < 1 then
    invalid_arg "Graph.service: queue_capacity must be >= 1";
  if overhead < 0. then invalid_arg "Graph.service: overhead must be >= 0";
  if accel <= 0. then invalid_arg "Graph.service: accel must be > 0";
  if partition <= 0. || partition > 1. then
    invalid_arg "Graph.service: partition must be in (0, 1]";
  { throughput; parallelism; queue_capacity; overhead; accel; partition }

type vertex = { id : vertex_id; kind : kind; label : string; service : service }

let unservable v ~packet_size =
  invalid_arg
    (Printf.sprintf "vertex %S cannot serve one %g-byte packet in finite time"
       v.label packet_size)

type edge = {
  src : vertex_id;
  dst : vertex_id;
  delta : float;
  alpha : float;
  beta : float;
  bandwidth : float option;
}

type t = { verts : vertex list; edgs : edge list }
(* Both lists are kept in insertion order; graphs have at most tens of
   vertices, so lists beat the bookkeeping of maps here. *)

let empty = { verts = []; edgs = [] }

let add_vertex ~kind ~label ~service g =
  let id = List.length g.verts in
  ({ g with verts = g.verts @ [ { id; kind; label; service } ] }, id)

let vertex g id =
  match List.find_opt (fun v -> v.id = id) g.verts with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Graph.vertex: unknown id %d" id)

let mem_vertex g id = List.exists (fun v -> v.id = id) g.verts

let add_edge ?(delta = 1.) ?(alpha = 0.) ?(beta = 0.) ?bandwidth ~src ~dst g =
  if not (mem_vertex g src) then invalid_arg "Graph.add_edge: unknown src";
  if not (mem_vertex g dst) then invalid_arg "Graph.add_edge: unknown dst";
  if src = dst then invalid_arg "Graph.add_edge: self loop";
  if delta < 0. || alpha < 0. || beta < 0. then
    invalid_arg "Graph.add_edge: negative parameter";
  (match bandwidth with
  | Some bw when bw <= 0. -> invalid_arg "Graph.add_edge: bandwidth must be > 0"
  | _ -> ());
  if List.exists (fun e -> e.src = src && e.dst = dst) g.edgs then
    invalid_arg "Graph.add_edge: duplicate edge";
  { g with edgs = g.edgs @ [ { src; dst; delta; alpha; beta; bandwidth } ] }

let vertices g = g.verts
let edges g = g.edgs
let edge g ~src ~dst = List.find_opt (fun e -> e.src = src && e.dst = dst) g.edgs
let in_edges g id = List.filter (fun e -> e.dst = id) g.edgs
let out_edges g id = List.filter (fun e -> e.src = id) g.edgs
let in_degree g id = List.length (in_edges g id)
let ingress_vertices g = List.filter (fun v -> v.kind = Ingress) g.verts
let egress_vertices g = List.filter (fun v -> v.kind = Egress) g.verts
let vertex_count g = List.length g.verts
let find_vertex g ~label = List.find_opt (fun v -> v.label = label) g.verts

let set_service g id service =
  ignore (vertex g id);
  {
    g with
    verts = List.map (fun v -> if v.id = id then { v with service } else v) g.verts;
  }

let update_service g id f = set_service g id (f (vertex g id).service)

let set_edge_params ?delta ?alpha ?beta ?bandwidth ~src ~dst g =
  match edge g ~src ~dst with
  | None -> invalid_arg "Graph.set_edge_params: no such edge"
  | Some _ ->
    let update e =
      if e.src = src && e.dst = dst then
        {
          e with
          delta = Option.value delta ~default:e.delta;
          alpha = Option.value alpha ~default:e.alpha;
          beta = Option.value beta ~default:e.beta;
          bandwidth = Option.value bandwidth ~default:e.bandwidth;
        }
      else e
    in
    { g with edgs = List.map update g.edgs }

let remove_edge ~src ~dst g =
  match edge g ~src ~dst with
  | None -> invalid_arg "Graph.remove_edge: no such edge"
  | Some _ ->
    { g with edgs = List.filter (fun e -> not (e.src = src && e.dst = dst)) g.edgs }

let scale_out_split g id fractions =
  let outs = out_edges g id in
  if List.length outs <> List.length fractions then
    invalid_arg "Graph.scale_out_split: length mismatch";
  (* Degenerate fraction vectors would otherwise reach the division by
     [total_fraction] below and poison every out-edge with NaN δ/α/β
     (NaN passes both the [f < 0.] and [total <= 0.] tests). Name the
     vertex in every rejection so the caller can find the offending
     split — the feedback-split iteration feeds computed fractions in
     here, and "zero split" alone does not say where. *)
  let at () =
    match List.find_opt (fun v -> v.id = id) g.verts with
    | Some v -> Printf.sprintf "%S (vertex %d)" v.label id
    | None -> Printf.sprintf "vertex %d" id
  in
  if List.exists (fun f -> not (Float.is_finite f)) fractions then
    invalid_arg
      (Printf.sprintf "Graph.scale_out_split: non-finite fraction at %s"
         (at ()));
  if List.exists (fun f -> f < 0.) fractions then
    invalid_arg
      (Printf.sprintf "Graph.scale_out_split: negative fraction at %s" (at ()));
  let total_fraction = List.fold_left ( +. ) 0. fractions in
  if total_fraction <= 0. then
    invalid_arg
      (Printf.sprintf "Graph.scale_out_split: all-zero fractions at %s" (at ()));
  let total_delta = List.fold_left (fun acc e -> acc +. e.delta) 0. outs in
  let assignments =
    List.map2
      (fun e f ->
        let new_delta = total_delta *. f /. total_fraction in
        (* preserve the edge's medium mix: alpha/beta stay proportional
           to delta *)
        let ratio = if e.delta > 0. then new_delta /. e.delta else 0. in
        (e, new_delta, e.alpha *. ratio, e.beta *. ratio))
      outs fractions
  in
  let update e =
    match
      List.find_opt (fun (e', _, _, _) -> e'.src = e.src && e'.dst = e.dst) assignments
    with
    | Some (_, d, a, b) -> { e with delta = d; alpha = a; beta = b }
    | None -> e
  in
  { g with edgs = List.map update g.edgs }

let topological_order g =
  let in_deg = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace in_deg v.id (in_degree g v.id)) g.verts;
  let ready =
    List.filter_map (fun v -> if in_degree g v.id = 0 then Some v.id else None) g.verts
  in
  let rec loop ready acc =
    match ready with
    | [] -> List.rev acc
    | id :: rest ->
      let next =
        List.fold_left
          (fun ready e ->
            let d = Hashtbl.find in_deg e.dst - 1 in
            Hashtbl.replace in_deg e.dst d;
            if d = 0 then ready @ [ e.dst ] else ready)
          rest (out_edges g id)
      in
      loop next (id :: acc)
  in
  let order = loop ready [] in
  if List.length order = vertex_count g then Some order else None

let is_dag g = Option.is_some (topological_order g)

let paths_capped ?(limit = 10_000) g =
  let exception Stop in
  let count = ref 0 in
  let truncated = ref false in
  let results = ref [] in
  let rec walk v acc =
    let vx = vertex g v in
    if vx.kind = Egress then begin
      if !count >= limit then begin
        truncated := true;
        raise Stop
      end;
      incr count;
      results := List.rev (v :: acc) :: !results
    end
    else
      List.iter (fun e -> walk e.dst (v :: acc)) (out_edges g v)
  in
  (try List.iter (fun v -> walk v.id []) (ingress_vertices g)
   with Stop -> ());
  (List.rev !results, if !truncated then `Truncated else `Complete)

let reachable_from g seeds =
  let visited = Hashtbl.create 16 in
  let rec go id =
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      List.iter (fun e -> go e.dst) (out_edges g id)
    end
  in
  List.iter go seeds;
  visited

let coreachable_to g seeds =
  let visited = Hashtbl.create 16 in
  let rec go id =
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      List.iter (fun e -> go e.src) (in_edges g id)
    end
  in
  List.iter go seeds;
  visited

let validate g =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let ingresses = ingress_vertices g and egresses = egress_vertices g in
  if ingresses = [] then err "graph has no ingress vertex";
  if egresses = [] then err "graph has no egress vertex";
  if not (is_dag g) then err "graph has a cycle";
  if ingresses <> [] && egresses <> [] && is_dag g then begin
    let fwd = reachable_from g (List.map (fun v -> v.id) ingresses) in
    let bwd = coreachable_to g (List.map (fun v -> v.id) egresses) in
    List.iter
      (fun v ->
        if v.kind = Ip then begin
          if not (Hashtbl.mem fwd v.id) then
            err "vertex %d (%s) unreachable from any ingress" v.id v.label;
          if not (Hashtbl.mem bwd v.id) then
            err "vertex %d (%s) cannot reach any egress" v.id v.label
        end)
      g.verts
  end;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let pp_kind ppf = function
  | Ingress -> Fmt.string ppf "ingress"
  | Egress -> Fmt.string ppf "egress"
  | Ip -> Fmt.string ppf "ip"

let pp ppf g =
  Fmt.pf ppf "@[<v>graph (%d vertices, %d edges)" (vertex_count g)
    (List.length g.edgs);
  List.iter
    (fun v ->
      Fmt.pf ppf "@,  v%d %a %S P=%g D=%d N=%d O=%g A=%g gamma=%g" v.id pp_kind
        v.kind v.label v.service.throughput v.service.parallelism
        v.service.queue_capacity v.service.overhead v.service.accel
        v.service.partition)
    g.verts;
  List.iter
    (fun (e : edge) ->
      Fmt.pf ppf "@,  e %d->%d delta=%g alpha=%g beta=%g%a" e.src e.dst e.delta
        e.alpha e.beta
        Fmt.(option (fun ppf bw -> Fmt.pf ppf " bw=%g" bw))
        e.bandwidth)
    g.edgs;
  Fmt.pf ppf "@]"
