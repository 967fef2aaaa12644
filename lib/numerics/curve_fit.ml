type fit = { params : Vec.t; residual : float; r_squared : float }

let sum_sq_residuals model data p =
  Array.fold_left
    (fun acc (x, y) ->
      let predicted = model p x in
      if Float.is_finite predicted then acc +. ((predicted -. y) ** 2.)
      else infinity)
    0. data

(* Each simplex run's budget: more than the optimizer's default, because
   a fit's parameters span orders of magnitude. *)
let max_iter = 5000

let fit ~model ~data ~p0 () =
  if Array.length data = 0 then invalid_arg "Curve_fit.fit: no data";
  let objective = sum_sq_residuals model data in
  (* Parameters of physical models often span many orders of magnitude,
     which makes a single simplex run collapse early; restarting from
     the incumbent re-expands the simplex and recovers. *)
  let result =
    let rec restart n best =
      if n = 0 then best
      else
        let next =
          Nelder_mead.minimize ~max_iter ~f:objective ~x0:best.Nelder_mead.x ()
        in
        restart (n - 1) (if next.Nelder_mead.f < best.Nelder_mead.f then next else best)
    in
    restart 3 (Nelder_mead.minimize ~max_iter ~f:objective ~x0:p0 ())
  in
  let ys = Array.map snd data in
  let y_mean = Stats.mean ys in
  let ss_tot = Array.fold_left (fun acc y -> acc +. ((y -. y_mean) ** 2.)) 0. ys in
  let r_squared = if ss_tot = 0. then 1. else 1. -. (result.f /. ss_tot) in
  { params = result.x; residual = result.f; r_squared }

let linear ~data =
  let n = Array.length data in
  if n < 2 then invalid_arg "Curve_fit.linear: needs >= 2 points";
  let xs = Array.map fst data and ys = Array.map snd data in
  let x_mean = Stats.mean xs and y_mean = Stats.mean ys in
  let num = ref 0. and den = ref 0. in
  Array.iter
    (fun (x, y) ->
      num := !num +. ((x -. x_mean) *. (y -. y_mean));
      den := !den +. ((x -. x_mean) ** 2.))
    data;
  if !den = 0. then invalid_arg "Curve_fit.linear: all x identical";
  let slope = !num /. !den in
  (slope, y_mean -. (slope *. x_mean))

let mm1_latency_model p rate =
  let t0 = p.(0) and cap = p.(1) in
  if t0 <= 0. || cap <= 0. || rate >= cap then infinity
  else t0 /. (1. -. (rate /. cap))
