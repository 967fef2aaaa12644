type problem = {
  objective : Vec.t -> float;
  inequality : (Vec.t -> float) list;
  lower : Vec.t;
  upper : Vec.t;
}

type solution = { x : Vec.t; f : float; feasible : bool }

let violation problem x =
  let box =
    let acc = ref 0. in
    Array.iteri
      (fun i xi ->
        acc := !acc +. Float.max 0. (problem.lower.(i) -. xi);
        acc := !acc +. Float.max 0. (xi -. problem.upper.(i)))
      x;
    !acc
  in
  List.fold_left (fun acc g -> acc +. Float.max 0. (g x)) box problem.inequality

let penalized problem ~weight x =
  let v = violation problem x in
  problem.objective x +. (weight *. v *. v)

let is_feasible problem x = violation problem x <= 1e-6

let rounds = 4
let starts = 8

let minimize problem x0 =
  let x0 = Vec.clamp ~lo:problem.lower ~hi:problem.upper x0 in
  let rec escalate round x =
    if round >= rounds then x
    else
      let weight = 1e3 *. (100. ** float_of_int round) in
      let result =
        Nelder_mead.minimize ~f:(penalized problem ~weight) ~x0:x ()
      in
      escalate (round + 1) result.x
  in
  let x = escalate 0 x0 in
  let x = Vec.clamp ~lo:problem.lower ~hi:problem.upper x in
  { x; f = problem.objective x; feasible = is_feasible problem x }

let multi_start ~rng problem =
  let n = Array.length problem.lower in
  let random_point () =
    Array.init n (fun i ->
        let lo = problem.lower.(i) and hi = problem.upper.(i) in
        if hi > lo then lo +. Rng.float rng (hi -. lo) else lo)
  in
  let centre =
    Array.init n (fun i -> (problem.lower.(i) +. problem.upper.(i)) /. 2.)
  in
  let seeds = centre :: List.init starts (fun _ -> random_point ()) in
  let candidates = List.map (minimize problem) seeds in
  let better a b =
    match (a.feasible, b.feasible) with
    | true, false -> a
    | false, true -> b
    | _ -> if a.f <= b.f then a else b
  in
  match candidates with
  | [] -> assert false
  | first :: rest -> List.fold_left better first rest
