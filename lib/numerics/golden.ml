let inv_phi = (sqrt 5. -. 1.) /. 2.

let max_iter = 200

let minimize ?(tol = 1e-8) ~f ~lo ~hi () =
  if not (lo < hi) then invalid_arg "Golden.minimize: requires lo < hi";
  let rec loop a b c d fc fd iter =
    if b -. a <= tol || iter >= max_iter then
      let x = (a +. b) /. 2. in
      (x, f x)
    else if fc < fd then
      let b = d in
      let d = c in
      let c = b -. (inv_phi *. (b -. a)) in
      loop a b c d (f c) fc (iter + 1)
    else
      let a = c in
      let c = d in
      let d = a +. (inv_phi *. (b -. a)) in
      loop a b c d fd (f d) (iter + 1)
  in
  let c = hi -. (inv_phi *. (hi -. lo)) in
  let d = lo +. (inv_phi *. (hi -. lo)) in
  loop lo hi c d (f c) (f d) 0
