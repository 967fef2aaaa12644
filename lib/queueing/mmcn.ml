type t = { lambda : float; mu : float; servers : int; capacity : int }

let create ~lambda ~mu ~servers ~capacity =
  if lambda <= 0. || mu <= 0. then invalid_arg "Mmcn.create: rates must be > 0";
  if servers < 1 then invalid_arg "Mmcn.create: servers must be >= 1";
  if capacity < servers then invalid_arg "Mmcn.create: capacity must be >= servers";
  { lambda; mu; servers; capacity }

let utilization t = t.lambda /. (float_of_int t.servers *. t.mu)

(* Birth-death chain: service rate at state k is min(k, c)·mu. The
   unnormalized weights are built multiplicatively in log-free form with
   running normalization to stay finite for any load. When one step's
   ratio λ/(min(k, c)·μ) overflows anyway, the same chain is normalized
   from the top state down, as {!Mm1n.state_probabilities} does: the
   weight of state k − 1 is state k's over that ratio. *)
let state_probabilities t =
  let n = t.capacity in
  let service_rate k = float_of_int (min k t.servers) *. t.mu in
  let raw = Array.make (n + 1) 0. in
  raw.(0) <- 1.;
  for k = 1 to n do
    raw.(k) <- raw.(k - 1) *. t.lambda /. service_rate k;
    (* Rescale on overflow risk; relative weights are all that matter. *)
    if raw.(k) > 1e250 then
      for j = 0 to k do
        raw.(j) <- raw.(j) /. 1e250
      done
  done;
  let total = Array.fold_left ( +. ) 0. raw in
  if Float.is_finite total then Array.map (fun p -> p /. total) raw
  else begin
    raw.(n) <- 1.;
    for k = n downto 1 do
      raw.(k - 1) <- raw.(k) /. (t.lambda /. service_rate k)
    done;
    let total = Array.fold_left ( +. ) 0. raw in
    Array.map (fun p -> p /. total) raw
  end

let solve t =
  let mu = t.mu and servers = t.servers and probs = state_probabilities t in
  Mm1n.solution ~lambda:t.lambda ~mu probs ~moments:(fun ~admitted ->
      let c = float_of_int servers in
      let mu2 = mu *. mu and cmu = c *. mu in
      let cmu2 = cmu ** 2. and service_var = 1. /. mu2 in
      let m1 = ref 0. and m2 = ref 0. in
      for k = 0 to t.capacity - 1 do
        let q_k = probs.(k) /. admitted in
        if k < servers then begin
          (* immediate service: Exp(mu) *)
          m1 := !m1 +. (q_k /. mu);
          m2 := !m2 +. (q_k *. 2. /. mu2)
        end
        else begin
          (* Erlang(k-c+1, c mu) wait plus Exp(mu) service, independent *)
          let stages = float_of_int (k - servers + 1) in
          let wait_mean = stages /. cmu in
          let wait_var = stages /. cmu2 in
          let mean = wait_mean +. (1. /. mu) in
          let var = wait_var +. service_var in
          m1 := !m1 +. (q_k *. mean);
          m2 := !m2 +. (q_k *. (var +. (mean *. mean)))
        end
      done;
      (!m1, Float.max 0. (!m2 -. (!m1 *. !m1))))
