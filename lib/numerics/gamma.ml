(* Lanczos approximation, g = 7, n = 9 coefficients. *)
let lanczos =
  [|
    0.99999999999980993; 676.5203681218851; -1259.1392167224028;
    771.32342877765313; -176.61502916214059; 12.507343278686905;
    -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7;
  |]

(* ln Γ(x) for x > 0 (Lanczos approximation, ~1e-10 relative). *)
let rec log_gamma x =
  if x <= 0. then invalid_arg "Gamma.log_gamma: requires x > 0"
  else if x < 0.5 then
    (* reflection: Γ(x)Γ(1-x) = π/sin(πx) *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1. -. x)
  else begin
    let x = x -. 1. in
    let acc = ref lanczos.(0) in
    for i = 1 to 8 do
      acc := !acc +. (lanczos.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7.5 in
    (0.5 *. log (2. *. Float.pi))
    +. ((x +. 0.5) *. log t)
    -. t +. log !acc
  end

(* Series for P(a,x), converges fast for x < a + 1. *)
let lower_series ~a ~x =
  let rec go n term sum =
    if abs_float term < abs_float sum *. 1e-15 || n > 500 then sum
    else
      let term = term *. x /. (a +. float_of_int n) in
      go (n + 1) term (sum +. term)
  in
  let first = 1. /. a in
  let sum = go 1 first first in
  sum *. exp ((a *. log x) -. x -. log_gamma a)

(* Lentz continued fraction for Q(a,x) = 1 - P(a,x), for x >= a + 1. *)
let upper_cf ~a ~x =
  let tiny = 1e-300 in
  let b = ref (x +. 1. -. a) in
  let c = ref (1. /. tiny) in
  let d = ref (1. /. !b) in
  let h = ref !d in
  (try
     for i = 1 to 500 do
       let an = -.float_of_int i *. (float_of_int i -. a) in
       b := !b +. 2.;
       d := (an *. !d) +. !b;
       if abs_float !d < tiny then d := tiny;
       c := !b +. (an /. !c);
       if abs_float !c < tiny then c := tiny;
       d := 1. /. !d;
       let delta = !d *. !c in
       h := !h *. delta;
       if abs_float (delta -. 1.) < 1e-15 then raise Exit
     done
   with Exit -> ());
  !h *. exp ((a *. log x) -. x -. log_gamma a)

(* P(a, x) = γ(a, x)/Γ(a), the CDF of a Gamma(shape a, scale 1) at x.
   Requires [a > 0] and [x >= 0]. Series expansion for x < a+1,
   continued fraction otherwise. *)
let regularized_lower ~a ~x =
  if a <= 0. then invalid_arg "Gamma.regularized_lower: requires a > 0";
  if x < 0. then invalid_arg "Gamma.regularized_lower: requires x >= 0";
  if x = 0. then 0.
  else if x < a +. 1. then Float.min 1. (lower_series ~a ~x)
  else Float.max 0. (1. -. upper_cf ~a ~x)

let cdf ~shape ~scale x =
  if scale <= 0. then invalid_arg "Gamma.cdf: scale must be > 0";
  if x <= 0. then 0. else regularized_lower ~a:shape ~x:(x /. scale)

let quantile ~shape ~scale p =
  if p <= 0. || p >= 1. then invalid_arg "Gamma.quantile: p outside (0, 1)";
  if scale <= 0. then invalid_arg "Gamma.quantile: scale must be > 0";
  (* bracket then bisect on the CDF *)
  let mean = shape *. scale in
  let hi = ref (Float.max mean (scale *. 2.)) in
  while cdf ~shape ~scale !hi < p do
    hi := !hi *. 2.
  done;
  let lo = ref 0. and hi = ref !hi in
  for _ = 1 to 200 do
    let mid = 0.5 *. (!lo +. !hi) in
    if cdf ~shape ~scale mid < p then lo := mid else hi := mid
  done;
  0.5 *. (!lo +. !hi)

let of_moments ~mean ~variance =
  if mean <= 0. || variance <= 0. then None
  else
    let shape = mean *. mean /. variance in
    let scale = variance /. mean in
    Some (shape, scale)
