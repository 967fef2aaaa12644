module Q = Lognic_queueing
module N = Lognic_numerics

type quantiles = { q_mean : float; p50 : float; p90 : float; p99 : float }
type path_tail = { tpath : Graph.vertex_id list; tweight : float; tq : quantiles }

(* First two sojourn moments of an accepted arrival, from the
   see-k-on-arrival mixture (PASTA conditioned on acceptance). *)
let mm1n_moments ~lambda ~mu ~capacity =
  let queue = Q.Mm1n.create ~lambda ~mu ~capacity in
  let probs = Q.Mm1n.state_probabilities queue in
  let admit = 1. -. probs.(capacity) in
  if admit <= 0. then (0., 0.)
  else begin
    let m1 = ref 0. and m2 = ref 0. in
    for k = 0 to capacity - 1 do
      let q_k = probs.(k) /. admit in
      let stages = float_of_int (k + 1) in
      (* Erlang(k+1, mu): E[T] = (k+1)/mu, E[T^2] = (k+1)(k+2)/mu^2 *)
      m1 := !m1 +. (q_k *. stages /. mu);
      m2 := !m2 +. (q_k *. stages *. (stages +. 1.) /. (mu *. mu))
    done;
    (!m1, Float.max 0. (!m2 -. (!m1 *. !m1)))
  end

let mmcn_moments ~lambda ~mu ~servers ~capacity =
  let queue = Q.Mmcn.create ~lambda ~mu ~servers ~capacity in
  let probs = Q.Mmcn.state_probabilities queue in
  let admit = 1. -. probs.(capacity) in
  if admit <= 0. then (0., 0.)
  else begin
    let c = float_of_int servers in
    let m1 = ref 0. and m2 = ref 0. in
    for k = 0 to capacity - 1 do
      let q_k = probs.(k) /. admit in
      if k < servers then begin
        (* immediate service: Exp(mu) *)
        m1 := !m1 +. (q_k /. mu);
        m2 := !m2 +. (q_k *. 2. /. (mu *. mu))
      end
      else begin
        (* Erlang(k-c+1, c mu) wait plus Exp(mu) service, independent *)
        let stages = float_of_int (k - servers + 1) in
        let wait_mean = stages /. (c *. mu) in
        let wait_var = stages /. ((c *. mu) ** 2.) in
        let mean = wait_mean +. (1. /. mu) in
        let var = wait_var +. (1. /. (mu *. mu)) in
        m1 := !m1 +. (q_k *. mean);
        m2 := !m2 +. (q_k *. (var +. (mean *. mean)))
      end
    done;
    (!m1, Float.max 0. (!m2 -. (!m1 *. !m1)))
  end

(* (mean, variance) of the vertex's sojourn (queueing + service) for
   an accepted request; (0, 0) for transparent vertices. Only
   [Mm1n_model] and [Mmcn_model] are meaningful; the ablation models
   fall back to Mm1n. [rates_for] overrides the Eq 11 (λ, μ) per
   vertex ([None] falls back) — the hook {!Extensions.mixed_tail}
   uses to thread union-queue rates through the tail analysis. *)
let vertex_sojourn_moments ?(model = Latency.Mm1n_model) ?rates_for g ~traffic
    id =
  let v = Graph.vertex g id in
  if v.service.throughput = infinity || Throughput.vertex_inflow g id <= 0. then
    (0., 0.)
  else begin
    let lambda, mu =
      match rates_for with
      | Some f -> (
        match f id with
        | Some rates -> rates
        | None -> Latency.vertex_rates g ~traffic id)
      | None -> Latency.vertex_rates g ~traffic id
    in
    match model with
    | Latency.Mmcn_model ->
      (* undo Eq 11's per-engine arrival split, as Latency does *)
      let d = float_of_int v.service.parallelism in
      let capacity = max v.service.queue_capacity v.service.parallelism in
      mmcn_moments ~lambda:(lambda *. d) ~mu ~servers:v.service.parallelism
        ~capacity
    | Latency.Mm1n_model | Latency.Mm1_model | Latency.No_queueing ->
      mm1n_moments ~lambda ~mu ~capacity:v.service.queue_capacity
  end

(* Per-path decomposition: random gamma part (vertex sojourns) plus a
   deterministic shift (overheads + data movement). *)
type path_shape = {
  shift : float;
  gamma : (float * float) option;  (* (shape, scale), None if variance 0 *)
  random_mean : float;
}

let path_shape ?model ?rates_for g ~hw ~traffic path =
  let rec walk mean var shift = function
    | a :: (b :: _ as rest) ->
      let m, v = vertex_sojourn_moments ?model ?rates_for g ~traffic a in
      let overhead = (Graph.vertex g a).Graph.service.overhead in
      let transfer =
        match Graph.edge g ~src:a ~dst:b with
        | Some e -> Latency.edge_transfer_time g ~hw ~traffic e
        | None -> 0.
      in
      walk (mean +. m) (var +. v) (shift +. overhead +. transfer) rest
    | [ last ] ->
      let m, v = vertex_sojourn_moments ?model ?rates_for g ~traffic last in
      (mean +. m, var +. v, shift)
    | [] -> (mean, var, shift)
  in
  let mean, var, shift = walk 0. 0. 0. path in
  { shift; gamma = N.Gamma.of_moments ~mean ~variance:var; random_mean = mean }

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

type result = {
  overall_q : quantiles;
  tails : path_tail list;
  mixture : (path_shape * float) list;
}

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

let evaluate ?model ?rates_for g ~hw ~traffic =
  (match Graph.validate g with
  | Ok () -> ()
  | Error errors -> invalid_arg ("Tail: invalid graph: " ^ String.concat "; " errors));
  let weighted_paths = Latency.path_weights g in
  if weighted_paths = [] then invalid_arg "Tail: no ingress->egress path";
  let shapes =
    List.map
      (fun (p, w) -> (path_shape ?model ?rates_for g ~hw ~traffic p, p, w))
      weighted_paths
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
  { overall_q; tails; mixture }
