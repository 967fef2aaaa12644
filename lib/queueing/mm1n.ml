type t = { lambda : float; mu : float; capacity : int }

let create ~lambda ~mu ~capacity =
  if lambda <= 0. || mu <= 0. then invalid_arg "Mm1n.create: rates must be > 0";
  if capacity < 1 then invalid_arg "Mm1n.create: capacity must be >= 1";
  { lambda; mu; capacity }

(* Offered, not carried, load. *)
let utilization t = t.lambda /. t.mu

(* The state distribution is geometric truncated at N. Computing it as an
   explicit normalized vector is O(N), exact at rho = 1, and numerically
   stable for any utilization — capacities here are queue credits, so N is
   small. When rho^N overflows (rho >> 1) the same vector is normalized
   from the top state down: Pro_k is proportional to (1/rho)^(N-k). *)
let state_probabilities t =
  let rho = utilization t and n = t.capacity in
  let raw = Array.init (n + 1) (fun k -> rho ** float_of_int k) in
  let total = Array.fold_left ( +. ) 0. raw in
  if Float.is_finite total then Array.map (fun p -> p /. total) raw
  else
    let raw = Array.init (n + 1) (fun k -> (1. /. rho) ** float_of_int (n - k)) in
    let total = Array.fold_left ( +. ) 0. raw in
    Array.map (fun p -> p /. total) raw

type solution = {
  probs : float array;
  blocking : float;
  time_in_system : float;
  waiting : float;
  sojourn : float * float;
}

(* Past rho ~ 1e16 Pro_N rounds to 1, so the admitted fraction is then
   read as the mass below the top state instead of 1 - Pro_N. An
   accepted arrival finds k requests with q_k = Pro_k / admitted (PASTA
   conditioned on acceptance). When even that mass underflows to 0, W is
   infinite, and so is an accepted arrival's sojourn. *)
let solution ~lambda ~mu probs ~moments =
  let capacity = Array.length probs - 1 in
  let admitted =
    let a = 1. -. probs.(capacity) in
    if a > 0. then a else Array.fold_left ( +. ) 0. (Array.sub probs 0 capacity)
  in
  let l = ref 0. in
  Array.iteri (fun k p -> l := !l +. (float_of_int k *. p)) probs;
  let time_in_system = !l /. (lambda *. admitted) in
  {
    probs;
    blocking = probs.(capacity);
    time_in_system;
    waiting = Float.max 0. (time_in_system -. (1. /. mu));
    sojourn =
      (if admitted <= 0. then (infinity, 0.) else moments ~admitted);
  }

let solve t =
  let mu = t.mu and probs = state_probabilities t in
  solution ~lambda:t.lambda ~mu probs ~moments:(fun ~admitted ->
      let mu2 = mu *. mu in
      let m1 = ref 0. and m2 = ref 0. in
      for k = 0 to t.capacity - 1 do
        let q_k = probs.(k) /. admitted in
        let stages = float_of_int (k + 1) in
        (* Erlang(k+1, mu): E[T] = (k+1)/mu, E[T^2] = (k+1)(k+2)/mu^2 *)
        m1 := !m1 +. (q_k *. stages /. mu);
        m2 := !m2 +. (q_k *. stages *. (stages +. 1.) /. mu2)
      done;
      (!m1, Float.max 0. (!m2 -. (!m1 *. !m1))))

let waiting_time_closed_form t =
  let rho = utilization t in
  let n = float_of_int t.capacity in
  let h = rho -. 1. in
  let inner =
    if abs_float h < 1e-6 then
      (* rho = 1 is a removable singularity: both geometric terms blow
         up as 1/h and their difference cancels catastrophically (the
         naive formula is off by ~1e-4 already at h = 1e-7). Taylor:
         rho/(1-rho) - N rho^N/(1-rho^N)
           = (N-1)/2 + (N^2-1)/12 (rho-1) + O(N^3 (rho-1)^2). *)
      ((n -. 1.) /. 2.) +. (((n *. n) -. 1.) /. 12. *. h)
    else
      (* rho^N - 1 via expm1/log1p keeps full relative precision in the
         denominator even when rho^N is within an ulp of 1. *)
      let geom = Float.expm1 (n *. Float.log1p h) in
      (n *. (geom +. 1.) /. geom) -. (rho /. h)
  in
  Float.max 0. (inner /. t.mu)
