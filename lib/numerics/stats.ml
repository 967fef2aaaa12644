let require_nonempty xs name =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty input")

let mean xs =
  require_nonempty xs "Stats.mean";
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

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
   information, so [percentile]/[median]/[minimum]/[maximum] all ignore
   them. An input consisting only of NaN yields NaN. [mean]/[variance]
   keep IEEE propagation (a poisoned sum is a signal, not a sample to
   discard). *)

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

let median xs = percentile xs 50.

let fold_ignoring_nan better name xs =
  require_nonempty xs name;
  Array.fold_left
    (fun acc x ->
      if Float.is_nan x then acc
      else if Float.is_nan acc then x
      else better acc x)
    Float.nan xs

let minimum xs = fold_ignoring_nan Float.min "Stats.minimum" xs
let maximum xs = fold_ignoring_nan Float.max "Stats.maximum" xs

let relative_error ~actual ~expected =
  if expected = 0. then if actual = 0. then 0. else infinity
  else abs_float (actual -. expected) /. abs_float expected

let geometric_mean xs =
  require_nonempty xs "Stats.geometric_mean";
  if Array.exists (fun x -> x <= 0.) xs then
    invalid_arg "Stats.geometric_mean: non-positive entry";
  let log_sum = Array.fold_left (fun acc x -> acc +. log x) 0. xs in
  exp (log_sum /. float_of_int (Array.length xs))

let weighted_mean pairs =
  let wsum = List.fold_left (fun acc (_, w) -> acc +. w) 0. pairs in
  if wsum <= 0. then invalid_arg "Stats.weighted_mean: weight sum must be > 0";
  List.fold_left (fun acc (v, w) -> acc +. (v *. w)) 0. pairs /. wsum

module Online = struct
  type t = { mutable n : int; mutable mean : float; mutable m2 : float }

  let create () = { n = 0; mean = 0.; m2 = 0. }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = t.n
  let mean t = if t.n = 0 then 0. else t.mean
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
end

module Histogram = struct
  type t = {
    lo : float;
    hi : float;
    counts : int array;
    mutable total : int;
    mutable underflow : int;
    mutable overflow : int;
    mutable nan_count : int;
  }

  let create ~lo ~hi ~bins =
    if not (lo < hi) then invalid_arg "Histogram.create: requires lo < hi";
    if bins <= 0 then invalid_arg "Histogram.create: requires bins > 0";
    {
      lo;
      hi;
      counts = Array.make bins 0;
      total = 0;
      underflow = 0;
      overflow = 0;
      nan_count = 0;
    }

  let add t x =
    (* NaN first: any range comparison against NaN is false, and
       [int_of_float nan] is unspecified — it must never reach the bin
       index computation. Out-of-range samples are tallied separately
       instead of being clamped into the edge bins, which used to distort
       exported latency distributions. *)
    t.total <- t.total + 1;
    if Float.is_nan x then t.nan_count <- t.nan_count + 1
    else if x < t.lo then t.underflow <- t.underflow + 1
    else if x > t.hi then t.overflow <- t.overflow + 1
    else begin
      let bins = Array.length t.counts in
      let raw =
        int_of_float (float_of_int bins *. (x -. t.lo) /. (t.hi -. t.lo))
      in
      (* x = hi maps to bins, folded into the last (closed-range) bin. *)
      let i = min (bins - 1) raw in
      t.counts.(i) <- t.counts.(i) + 1
    end

  let counts t = Array.copy t.counts
  let total t = t.total
  let underflow t = t.underflow
  let overflow t = t.overflow
  let nan_count t = t.nan_count
  let in_range t = t.total - t.underflow - t.overflow - t.nan_count

  let bin_mid t i =
    let bins = Array.length t.counts in
    if i < 0 || i >= bins then invalid_arg "Histogram.bin_mid: index";
    let width = (t.hi -. t.lo) /. float_of_int bins in
    t.lo +. (width *. (float_of_int i +. 0.5))
end
