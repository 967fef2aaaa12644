let require_nonempty xs name =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty input")

let mean xs =
  require_nonempty xs "Stats.mean";
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* Unbiased sample variance (n-1 denominator); 0 for singleton input.
   Raises [Invalid_argument] on an empty array. *)
let variance xs =
  require_nonempty xs "Stats.variance";
  let n = Array.length xs in
  if n = 1 then 0.
  else
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    ss /. float_of_int (n - 1)

let stddev xs = sqrt (variance xs)

(* NaN policy for order statistics: NaN samples carry no ordering
   information, so [percentile] ignores them. An input consisting only
   of NaN yields NaN. [mean]/[variance] keep IEEE propagation (a
   poisoned sum is a signal, not a sample to discard). *)

(* Hoare's FIND (Wirth's variant) on a.(lo..hi), NaN-free: afterwards
   a.(k) holds the value of rank k under [<], with nothing larger before
   it and nothing smaller after it. Both scans stop on keys equal to the
   pivot, so a run of ties splits in the middle and an all-equal range
   (deterministic service, where many latencies coincide) stays linear.
   The pivot position comes from a fixed integer hash of the range, so
   the result is reproducible and ordered input is no worst case. Int
   arguments and float-array reads only: nothing is boxed. *)
let select (a : float array) lo hi k =
  let l = ref lo and r = ref hi in
  let h = ref (hi lxor (lo lsl 17) lxor 0x2545F491) in
  while !l < !r do
    h := (!h * 0x5851F42D) + 0x14057B7E;
    let x = a.(!l + ((!h lsr 17) mod (!r - !l + 1))) in
    let i = ref !l and j = ref !r in
    while !i <= !j do
      while a.(!i) < x do
        incr i
      done;
      while x < a.(!j) do
        decr j
      done;
      if !i <= !j then begin
        let tmp = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- tmp;
        incr i;
        decr j
      end
    done;
    if !j < k then l := !i;
    if k < !i then r := !j
  done

(* The rank-k value of a.(lo..hi), after [select] placed it at k.
   Order statistics rank every -0. below every 0., which [<] (and
   [Float.compare]) cannot see, so a zero of rank k is -0. exactly when
   more than k - lo samples are negative or -0. *)
let ranked (a : float array) lo hi k =
  let x = a.(k) in
  if x <> 0. then x
  else begin
    let below = ref 0 in
    for i = lo to hi do
      let y = a.(i) in
      if y < 0. || (y = 0. && Float.sign_bit y) then incr below
    done;
    if k - lo < !below then -0. else 0.
  end

let percentile_in_place a ~len p =
  if len <= 0 || len > Array.length a then
    invalid_arg "Stats.percentile_in_place: len outside [1, length]";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p outside [0,100]";
  (* NaN samples go to the front and are left out *)
  let first = ref 0 in
  for i = 0 to len - 1 do
    let x = a.(i) in
    if x <> x then begin
      a.(i) <- a.(!first);
      a.(!first) <- x;
      incr first
    end
  done;
  let first = !first and last = len - 1 in
  if first = len then Float.nan
  else
    let rank = p /. 100. *. float_of_int (last - first) in
    let lo = first + int_of_float (floor rank) in
    let hi = first + int_of_float (ceil rank) in
    select a first last lo;
    let v_lo = ranked a first last lo in
    if lo = hi then v_lo
    else begin
      (* rank lo + 1 is the smallest value after the partition at lo *)
      let m = ref hi in
      for i = hi + 1 to last do
        if a.(i) < a.(!m) then m := i
      done;
      let tmp = a.(hi) in
      a.(hi) <- a.(!m);
      a.(!m) <- tmp;
      let v_hi = ranked a first last hi in
      let frac = rank -. float_of_int (lo - first) in
      v_lo +. (frac *. (v_hi -. v_lo))
    end

let percentile xs p =
  require_nonempty xs "Stats.percentile";
  percentile_in_place (Array.copy xs) ~len:(Array.length xs) p

let relative_error ~actual ~expected =
  if expected = 0. then if actual = 0. then 0. else infinity
  else abs_float (actual -. expected) /. abs_float expected

let weighted_mean pairs =
  let wsum = List.fold_left (fun acc (_, w) -> acc +. w) 0. pairs in
  if wsum <= 0. then invalid_arg "Stats.weighted_mean: weight sum must be > 0";
  List.fold_left (fun acc (v, w) -> acc +. (v *. w)) 0. pairs /. wsum

module Online = struct
  type t = { mutable n : int; mutable mean : float }

  let create () = { n = 0; mean = 0. }

  let add t x =
    t.n <- t.n + 1;
    t.mean <- t.mean +. ((x -. t.mean) /. float_of_int t.n)

  let mean t = if t.n = 0 then 0. else t.mean
end
