let weighted_shares ~capacity ~weights ~demands =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Wmmcn.weighted_shares: no classes";
  if Array.length demands <> n then
    invalid_arg "Wmmcn.weighted_shares: weights/demands length mismatch";
  if capacity <= 0. then
    invalid_arg "Wmmcn.weighted_shares: capacity must be > 0";
  Array.iter
    (fun w ->
      if w <= 0. then invalid_arg "Wmmcn.weighted_shares: weights must be > 0")
    weights;
  Array.iter
    (fun d ->
      if d < 0. then invalid_arg "Wmmcn.weighted_shares: negative demand")
    demands;
  let alloc = Array.make n 0. in
  let satisfied = Array.make n false in
  (* Water-filling: cap satisfied classes at their demand and
     redistribute the surplus among the rest by weight, until a round
     caps nobody (at most n rounds, each in index order, so the
     computation is deterministic). *)
  let remaining = ref capacity in
  let progress = ref true in
  while !progress do
    progress := false;
    let active_w = ref 0. in
    for i = 0 to n - 1 do
      if not satisfied.(i) then active_w := !active_w +. weights.(i)
    done;
    if !active_w > 0. then
      for i = 0 to n - 1 do
        if not satisfied.(i) then begin
          let entitlement = !remaining *. weights.(i) /. !active_w in
          if demands.(i) <= entitlement then begin
            alloc.(i) <- demands.(i);
            satisfied.(i) <- true;
            progress := true
          end
        end
      done;
    if !progress then begin
      let used = ref 0. in
      for i = 0 to n - 1 do
        if satisfied.(i) then used := !used +. alloc.(i)
      done;
      remaining := capacity -. !used
    end
  done;
  (* Unsatisfied classes split the remaining capacity by weight. *)
  let active_w = ref 0. in
  for i = 0 to n - 1 do
    if not satisfied.(i) then active_w := !active_w +. weights.(i)
  done;
  if !active_w > 0. then
    for i = 0 to n - 1 do
      if not satisfied.(i) then
        alloc.(i) <- !remaining *. weights.(i) /. !active_w
    done
  else begin
    (* Everybody is satisfied: hand the idle headroom back in weight
       proportion so shares reflect the work-conserving scheduler. *)
    let total_w = Array.fold_left ( +. ) 0. weights in
    let used = Array.fold_left ( +. ) 0. alloc in
    let headroom = Float.max 0. (capacity -. used) in
    for i = 0 to n - 1 do
      alloc.(i) <- alloc.(i) +. (headroom *. weights.(i) /. total_w)
    done
  end;
  alloc

type class_result = {
  share : float;
  rho : float;
  blocking : float;
  sojourn : float;
  waiting : float;
}

let evaluate ~lambda ~mu ~servers ~capacity ~weights =
  let n = Array.length lambda in
  if n = 0 then invalid_arg "Wmmcn.evaluate: no classes";
  if Array.length weights <> n then
    invalid_arg "Wmmcn.evaluate: lambda/weights length mismatch";
  if mu <= 0. then invalid_arg "Wmmcn.evaluate: mu must be > 0";
  if servers < 1 then invalid_arg "Wmmcn.evaluate: servers must be >= 1";
  if capacity < servers then
    invalid_arg "Wmmcn.evaluate: capacity must be >= servers";
  Array.iter
    (fun l -> if l < 0. then invalid_arg "Wmmcn.evaluate: negative rate")
    lambda;
  let pool = float_of_int servers *. mu in
  let demands = Array.map (fun l -> l /. pool) lambda in
  let shares = weighted_shares ~capacity:1. ~weights ~demands in
  Array.init n (fun i ->
      let share = shares.(i) in
      let mu_i = share *. mu in
      if lambda.(i) <= 0. || mu_i <= 0. then
        {
          share;
          rho = 0.;
          blocking = 0.;
          sojourn = (if mu_i > 0. then 1. /. mu_i else 0.);
          waiting = 0.;
        }
      else
        let q =
          Mmcn.create ~lambda:lambda.(i) ~mu:mu_i ~servers ~capacity
        in
        let s = Mmcn.solve q in
        {
          share;
          rho = Mmcn.utilization q;
          blocking = s.Mm1n.blocking;
          sojourn = s.Mm1n.time_in_system;
          waiting = s.Mm1n.waiting;
        })
