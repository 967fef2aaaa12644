type result = { x : Vec.t; f : float; iterations : int; converged : bool }

(* Standard coefficients: reflection 1, expansion 2, contraction 1/2,
   shrink 1/2. *)
let alpha = 1.0
let gamma = 2.0
let rho = 0.5
let sigma = 0.5

(* Relative convergence tolerances and the simplex seed's relative step. *)
let f_tol = 1e-9
let x_tol = 1e-9
let initial_step = 0.05

let initial_simplex x0 =
  let n = Array.length x0 in
  let vertex i =
    if i = 0 then Array.copy x0
    else
      let v = Array.copy x0 in
      let j = i - 1 in
      let delta =
        if v.(j) = 0. then initial_step else initial_step *. abs_float v.(j)
      in
      v.(j) <- v.(j) +. delta;
      v
  in
  Array.init (n + 1) vertex

let minimize ?(max_iter = 2000) ~f ~x0 () =
  let n = Array.length x0 in
  if n = 0 then invalid_arg "Nelder_mead.minimize: empty x0";
  let pts = initial_simplex x0 in
  let vals = Array.map f pts in
  if not (Float.is_finite vals.(0)) then
    invalid_arg "Nelder_mead.minimize: f(x0) must be finite";
  let order () =
    let idx = Array.init (n + 1) Fun.id in
    Array.sort (fun i j -> compare vals.(i) vals.(j)) idx;
    let pts' = Array.map (fun i -> pts.(i)) idx in
    let vals' = Array.map (fun i -> vals.(i)) idx in
    Array.blit pts' 0 pts 0 (n + 1);
    Array.blit vals' 0 vals 0 (n + 1)
  in
  let centroid_excluding_worst () =
    Vec.centroid (Array.to_list (Array.sub pts 0 n))
  in
  (* Tolerances are relative to the incumbent's scale so that
     objectives and parameters spanning many orders of magnitude
     converge neither prematurely nor never. *)
  let spread_converged () =
    abs_float (vals.(n) -. vals.(0))
    <= f_tol *. Float.max (abs_float vals.(0)) 1e-30
  in
  let diameter_converged () =
    let diameter =
      Array.fold_left (fun acc p -> Float.max acc (Vec.dist p pts.(0))) 0. pts
    in
    diameter <= x_tol *. (1. +. Vec.norm2 pts.(0))
  in
  let rec loop iter =
    order ();
    if spread_converged () || diameter_converged () then
      { x = pts.(0); f = vals.(0); iterations = iter; converged = true }
    else if iter >= max_iter then
      { x = pts.(0); f = vals.(0); iterations = iter; converged = false }
    else begin
      let c = centroid_excluding_worst () in
      let worst = pts.(n) in
      let reflected = Vec.axpy (1. +. alpha) c (Vec.scale (-.alpha) worst) in
      let f_r = f reflected in
      if f_r < vals.(0) then begin
        (* Try to expand past the reflected point. *)
        let expanded = Vec.axpy (1. +. gamma) c (Vec.scale (-.gamma) worst) in
        let f_e = f expanded in
        if f_e < f_r then begin
          pts.(n) <- expanded;
          vals.(n) <- f_e
        end
        else begin
          pts.(n) <- reflected;
          vals.(n) <- f_r
        end;
        loop (iter + 1)
      end
      else if f_r < vals.(n - 1) then begin
        pts.(n) <- reflected;
        vals.(n) <- f_r;
        loop (iter + 1)
      end
      else begin
        let contracted =
          if f_r < vals.(n) then
            (* outside contraction, towards the reflected point *)
            Vec.axpy (1. -. rho) c (Vec.scale rho reflected)
          else Vec.axpy (1. -. rho) c (Vec.scale rho worst)
        in
        let f_c = f contracted in
        let bar = Float.min f_r vals.(n) in
        if f_c < bar then begin
          pts.(n) <- contracted;
          vals.(n) <- f_c;
          loop (iter + 1)
        end
        else begin
          (* Shrink everything towards the best vertex. *)
          for i = 1 to n do
            pts.(i) <- Vec.axpy (1. -. sigma) pts.(0) (Vec.scale sigma pts.(i));
            vals.(i) <- f pts.(i)
          done;
          loop (iter + 1)
        end
      end
    end
  in
  loop 0
