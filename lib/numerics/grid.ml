let maximize_int ~f ~lo ~hi () =
  if lo > hi then invalid_arg "Grid.maximize_int: requires lo <= hi";
  let best = ref lo and best_v = ref (f lo) in
  for i = lo + 1 to hi do
    let v = f i in
    if v > !best_v then begin
      best := i;
      best_v := v
    end
  done;
  (!best, !best_v)
