module N = Lognic_numerics

type quantiles = { q_mean : float; p50 : float; p90 : float; p99 : float }
type path_tail = { tpath : Graph.vertex_id list; tweight : float; tq : quantiles }

(* Per-path decomposition: random gamma part (vertex sojourns) plus a
   deterministic shift (overheads + data movement). *)
type path_shape = {
  shift : float;
  gamma : (float * float) option;  (* (shape, scale), None if variance 0 *)
  random_mean : float;
}

let path_shape g ~hw ~traffic ~sojourn path =
  let rec walk mean var shift = function
    | a :: (b :: _ as rest) ->
      let m, v = sojourn a in
      let overhead = (Graph.vertex g a).Graph.service.overhead in
      let transfer =
        match Graph.edge g ~src:a ~dst:b with
        | Some e -> Latency.edge_transfer_time g ~hw ~traffic e
        | None -> 0.
      in
      walk (mean +. m) (var +. v) (shift +. overhead +. transfer) rest
    | [ last ] ->
      let m, v = sojourn last in
      (mean +. m, var +. v, shift)
    | [] -> (mean, var, shift)
  in
  let mean, var, shift = walk 0. 0. 0. path in
  (* an infinite mean fits no gamma: every quantile is infinite *)
  let gamma =
    if Float.is_finite mean then N.Gamma.of_moments ~mean ~variance:var else None
  in
  { shift; gamma; random_mean = mean }

let shape_cdf shape x =
  if x < shape.shift then 0.
  else
    match shape.gamma with
    | None -> if x >= shape.shift +. shape.random_mean then 1. else 0.
    | Some (a, scale) -> N.Gamma.cdf ~shape:a ~scale (x -. shape.shift)

let shape_quantile shape p =
  match shape.gamma with
  | None -> shape.shift +. shape.random_mean
  | Some (a, scale) -> shape.shift +. N.Gamma.quantile ~shape:a ~scale p

let quantiles_of_shape shape =
  {
    q_mean = shape.shift +. shape.random_mean;
    p50 = shape_quantile shape 0.5;
    p90 = shape_quantile shape 0.9;
    p99 = shape_quantile shape 0.99;
  }

type result = { overall_q : quantiles; tails : path_tail list }

let overall r = r.overall_q
let per_path r = r.tails

let mixture_quantile shapes_weights p =
  let cdf x =
    List.fold_left (fun acc (s, w) -> acc +. (w *. shape_cdf s x)) 0. shapes_weights
  in
  (* bracket: the largest per-path p-quantile is an upper bound *)
  let hi =
    List.fold_left
      (fun acc (s, _) -> Float.max acc (shape_quantile s (Float.max p 0.5)))
      1e-12 shapes_weights
  in
  let lo = ref 0. and hi = ref (hi *. 2.) in
  while cdf !hi < p do
    hi := !hi *. 2.
  done;
  for _ = 1 to 100 do
    let mid = 0.5 *. (!lo +. !hi) in
    if cdf mid < p then lo := mid else hi := mid
  done;
  0.5 *. (!lo +. !hi)

let evaluate g ~hw ~traffic (latency : Latency.result) =
  let moments = Hashtbl.create 16 in
  List.iter
    (fun (t : Latency.vertex_terms) -> Hashtbl.replace moments t.vid t.sojourn)
    latency.per_vertex;
  let sojourn id = Hashtbl.find moments id in
  let shapes =
    List.map
      (fun (r : Latency.path_report) ->
        (path_shape g ~hw ~traffic ~sojourn r.path, r.path, r.weight))
      latency.per_path
  in
  let tails =
    List.map (fun (s, p, w) -> { tpath = p; tweight = w; tq = quantiles_of_shape s }) shapes
  in
  let mixture = List.map (fun (s, _, w) -> (s, w)) shapes in
  let overall_q =
    {
      q_mean =
        List.fold_left
          (fun acc (s, _, w) -> acc +. (w *. (s.shift +. s.random_mean)))
          0. shapes;
      p50 = mixture_quantile mixture 0.5;
      p90 = mixture_quantile mixture 0.9;
      p99 = mixture_quantile mixture 0.99;
    }
  in
  { overall_q; tails }
