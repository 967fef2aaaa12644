(* Unit and property tests for lognic_numerics. *)

open Helpers
module N = Lognic_numerics

(* Rng *)

let rng_deterministic () =
  let a = N.Rng.create ~seed:7 and b = N.Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check_close "same seed, same stream" (N.Rng.float a 1.) (N.Rng.float b 1.)
  done

(* [Rng.create]'s seeding restated, so the test holds the same state as
   a plain [Random.State.t]. *)
let stdlib_state seed = Random.State.make [| seed; 0x10619c; seed lxor 0x5f3759df |]

let rng_float_matches_stdlib () =
  List.iter
    (fun seed ->
      List.iter
        (fun bound ->
          let r = N.Rng.create ~seed and s = stdlib_state seed in
          for i = 1 to 100_000 do
            let a = N.Rng.float r bound and b = Random.State.float s bound in
            if Int64.bits_of_float a <> Int64.bits_of_float b then
              Alcotest.failf "seed %d, bound %g, draw %d: %h, stdlib %h" seed
                bound i a b
          done;
          for _ = 1 to 16 do
            Alcotest.(check int) "streams still aligned" (Random.State.bits s)
              (N.Rng.bits r)
          done)
        [ 1.; 3.7; 1e-300; 1e300 ])
    [ 1; 7; 42 ]

let rng_seed_changes_stream () =
  let a = N.Rng.create ~seed:1 and b = N.Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if N.Rng.float a 1. = N.Rng.float b 1. then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 8)

let rng_split_independent () =
  let parent = N.Rng.create ~seed:3 in
  let child = N.Rng.split parent in
  (* Drawing from the child must not equal drawing the same positions
     from a fresh parent clone (the split advanced the parent). *)
  let fresh = N.Rng.create ~seed:3 in
  let _ = N.Rng.split fresh in
  check_close "split is a pure function of parent state"
    (N.Rng.float (N.Rng.split (N.Rng.create ~seed:3)) 1.)
    (N.Rng.float child 1.)

let rng_bounds () =
  let rng = N.Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let f = N.Rng.float rng 3.5 in
    Alcotest.(check bool) "float in range" true (f >= 0. && f < 3.5);
    let i = N.Rng.int rng 17 in
    Alcotest.(check bool) "int in range" true (i >= 0 && i < 17)
  done

(* Dist *)

let dist_sample_statistics () =
  let rng = N.Rng.create ~seed:5 in
  let sample_mean rate n =
    let acc = ref 0. in
    for _ = 1 to n do
      acc := !acc +. N.Dist.sample_exponential ~rate rng
    done;
    !acc /. float_of_int n
  in
  check_within ~pct:3. "exponential sample mean" 0.5 (sample_mean 2. 50_000)

(* Stats *)

let stats_basics () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_close "mean" 5. (N.Stats.mean xs);
  check_close ~tol:1e-6 "stddev" (sqrt (32. /. 7.)) (N.Stats.stddev xs);
  check_close "median" 4.5 (N.Stats.percentile xs 50.);
  check_close "p0" 2. (N.Stats.percentile xs 0.);
  check_close "p100" 9. (N.Stats.percentile xs 100.)

let stats_nan_policy () =
  (* One policy across the order statistics: NaN samples are ignored,
     and the result is NaN only when every sample is NaN. *)
  let xs = [| Float.nan; 4.; 2.; Float.nan; 9. |] in
  check_close "p0 ignores NaN" 2. (N.Stats.percentile xs 0.);
  check_close "p50 ignores NaN" 4. (N.Stats.percentile xs 50.);
  check_close "p100 ignores NaN" 9. (N.Stats.percentile xs 100.);
  let all_nan = [| Float.nan; Float.nan |] in
  Alcotest.(check bool) "all-NaN percentile" true
    (Float.is_nan (N.Stats.percentile all_nan 50.))

let stats_percentile_interpolates () =
  let xs = [| 10.; 20. |] in
  check_close "p50 interpolation" 15. (N.Stats.percentile xs 50.);
  check_close "p25 interpolation" 12.5 (N.Stats.percentile xs 25.)

let stats_percentile_does_not_mutate () =
  let xs = [| 3.; 1.; 2. |] in
  let _ = N.Stats.percentile xs 50. in
  Alcotest.(check (list (float 0.))) "input order preserved" [ 3.; 1.; 2. ]
    (Array.to_list xs)

(* The definition selection must reproduce bit for bit: sort a copy by
   [Float.compare] (NaNs first) and interpolate over the non-NaN
   suffix. [Float.compare] equates -0. and 0., which leaves a mixed
   zero run in the sort's arbitrary order; the order statistics put
   every -0. first, so the reference breaks that tie the same way. *)
let percentile_by_sort xs p =
  let a = Array.copy xs in
  Array.sort
    (fun x y ->
      match Float.compare x y with
      | 0 -> Bool.compare (Float.sign_bit y) (Float.sign_bit x)
      | c -> c)
    a;
  let n = Array.length a in
  let first = ref 0 in
  while !first < n && Float.is_nan a.(!first) do
    incr first
  done;
  let first = !first in
  if first = n then Float.nan
  else
    let rank = p /. 100. *. float_of_int (n - first - 1) in
    let lo = first + int_of_float (floor rank) in
    let hi = first + int_of_float (ceil rank) in
    if lo = hi then a.(lo)
    else a.(lo) +. ((rank -. float_of_int (lo - first)) *. (a.(hi) -. a.(lo)))

let same_bits a b =
  (Float.is_nan a && Float.is_nan b) || Int64.bits_of_float a = Int64.bits_of_float b

let stats_percentile_all_equal () =
  let xs = Array.make 100_000 3.25 in
  List.iter
    (fun p ->
      Alcotest.(check bool) (Printf.sprintf "p%g of 1e5 equal samples" p) true
        (same_bits 3.25 (N.Stats.percentile xs p)))
    [ 0.; 25.; 50.; 99.; 100. ]

let stats_relative_error () =
  check_close "10% error" 0.1 (N.Stats.relative_error ~actual:110. ~expected:100.);
  check_close "zero-zero" 0. (N.Stats.relative_error ~actual:0. ~expected:0.);
  Alcotest.(check bool)
    "zero expected" true
    (N.Stats.relative_error ~actual:1. ~expected:0. = infinity)

let stats_weighted () =
  check_close "weighted mean" 2.5
    (N.Stats.weighted_mean [ (1., 1.); (3., 3.) ]);
  check_raises_invalid "weighted needs mass" (fun () ->
      N.Stats.weighted_mean [ (1., 0.) ])

let stats_online_matches_batch () =
  let xs = [| 1.5; 2.5; 3.5; 10.; -4.; 0.25 |] in
  let online = N.Stats.Online.create () in
  Array.iter (N.Stats.Online.add online) xs;
  check_close ~tol:1e-12 "online mean" (N.Stats.mean xs)
    (N.Stats.Online.mean online)

let stats_empty_rejected () =
  check_raises_invalid "mean of empty" (fun () -> N.Stats.mean [||]);
  check_raises_invalid "percentile of empty" (fun () ->
      N.Stats.percentile [||] 50.)

(* Vec *)

let vec_arithmetic () =
  let a = [| 1.; 2.; 3. |] and b = [| 4.; 5.; 6. |] in
  check_close "dist" (sqrt 27.) (N.Vec.dist b a);
  Alcotest.(check (array (float 1e-12))) "scale" [| 2.; 4.; 6. |] (N.Vec.scale 2. a);
  check_close "norm" (sqrt 14.) (N.Vec.norm2 a);
  check_close "norm" 5. (N.Vec.norm2 [| 3.; 4. |]);
  check_close "dist" 5. (N.Vec.dist [| 0.; 0. |] [| 3.; 4. |]);
  Alcotest.(check (array (float 1e-12)))
    "axpy" [| 6.; 9.; 12. |]
    (N.Vec.axpy 2. a b)

let vec_centroid_clamp () =
  Alcotest.(check (array (float 1e-12)))
    "centroid" [| 2.; 3. |]
    (N.Vec.centroid [ [| 1.; 2. |]; [| 3.; 4. |] ]);
  Alcotest.(check (array (float 1e-12)))
    "clamp" [| 0.; 1.; 0.5 |]
    (N.Vec.clamp ~lo:[| 0.; 0.; 0. |] ~hi:[| 1.; 1.; 1. |] [| -3.; 7.; 0.5 |]);
  check_raises_invalid "length mismatch" (fun () -> N.Vec.dist [| 1. |] [| 1.; 2. |]);
  check_raises_invalid "empty centroid" (fun () -> N.Vec.centroid [])

(* Optimizers *)

let nelder_mead_quadratic () =
  let f x = ((x.(0) -. 3.) ** 2.) +. ((x.(1) +. 1.) ** 2.) in
  let r = N.Nelder_mead.minimize ~f ~x0:[| 0.; 0. |] () in
  Alcotest.(check bool) "converged" true r.converged;
  check_close ~tol:1e-3 "x0" 3. r.x.(0);
  check_close ~tol:1e-3 "x1" (-1.) r.x.(1)

let nelder_mead_rosenbrock () =
  let f x =
    (100. *. ((x.(1) -. (x.(0) *. x.(0))) ** 2.)) +. ((1. -. x.(0)) ** 2.)
  in
  let r =
    N.Nelder_mead.minimize ~max_iter:10_000 ~f ~x0:[| -1.2; 1. |] ()
  in
  check_close ~tol:1e-2 "rosenbrock x" 1. r.x.(0);
  check_close ~tol:1e-2 "rosenbrock y" 1. r.x.(1)

let nelder_mead_rejects_infinite_regions () =
  (* f = infinity outside the unit box; minimum at the box corner. *)
  let f x =
    if x.(0) < 0. || x.(0) > 1. then infinity else (x.(0) -. 2.) ** 2.
  in
  let r = N.Nelder_mead.minimize ~f ~x0:[| 0.5 |] () in
  check_close ~tol:1e-3 "clamped to boundary" 1. r.x.(0)

let golden_section () =
  let x, v = N.Golden.minimize ~f:(fun x -> (x -. 1.7) ** 2.) ~lo:0. ~hi:10. () in
  check_close ~tol:1e-5 "argmin" 1.7 x;
  check_close ~tol:1e-9 "min value" 0. v;
  check_raises_invalid "bad interval" (fun () ->
      N.Golden.minimize ~f:Fun.id ~lo:1. ~hi:0. ())

let grid_search () =
  let x, v =
    N.Grid.maximize_int ~f:(fun i -> -.float_of_int ((i - 4) * (i - 4))) ~lo:0 ~hi:10 ()
  in
  Alcotest.(check int) "argmax of a parabola" 4 x;
  check_close "max value" 0. v;
  let x, v = N.Grid.maximize_int ~f:(fun i -> float_of_int i) ~lo:2 ~hi:9 () in
  Alcotest.(check int) "argmax" 9 x;
  check_close "max" 9. v

let constrained_penalty () =
  (* minimize x^2 + y^2 subject to x + y >= 1 -> (0.5, 0.5) *)
  let problem =
    {
      N.Constrained.objective = (fun x -> (x.(0) ** 2.) +. (x.(1) ** 2.));
      inequality = [ (fun x -> 1. -. x.(0) -. x.(1)) ];
      lower = [| -2.; -2. |];
      upper = [| 2.; 2. |];
    }
  in
  let s = N.Constrained.multi_start ~rng:(N.Rng.create ~seed:21) problem in
  Alcotest.(check bool) "feasible" true s.feasible;
  check_close ~tol:2e-2 "x" 0.5 s.x.(0);
  check_close ~tol:2e-2 "y" 0.5 s.x.(1)

let constrained_box_only () =
  let problem =
    {
      N.Constrained.objective = (fun x -> -.x.(0));
      inequality = [];
      lower = [| 0. |];
      upper = [| 3. |];
    }
  in
  let s = N.Constrained.multi_start ~rng:(N.Rng.create ~seed:21) problem in
  check_close ~tol:1e-2 "pushed to upper bound" 3. s.x.(0)

(* Curve fitting *)

let linear_fit () =
  let data = Array.init 10 (fun i -> (float_of_int i, (2.5 *. float_of_int i) +. 1.)) in
  let slope, intercept = N.Curve_fit.linear ~data in
  check_close ~tol:1e-9 "slope" 2.5 slope;
  check_close ~tol:1e-9 "intercept" 1. intercept;
  check_raises_invalid "degenerate x" (fun () ->
      N.Curve_fit.linear ~data:[| (1., 1.); (1., 2.) |])

let nonlinear_fit_recovers_parameters () =
  let truth = [| 2e-5; 1e9 |] in
  let data =
    Array.init 12 (fun i ->
        let rate = 0.9e9 *. float_of_int (i + 1) /. 12. in
        (rate, N.Curve_fit.mm1_latency_model truth rate))
  in
  let fit =
    N.Curve_fit.fit ~model:N.Curve_fit.mm1_latency_model ~data
      ~p0:[| 1e-5; 2e9 |] ()
  in
  check_within ~pct:2. "t0 recovered" truth.(0) fit.params.(0);
  check_within ~pct:2. "capacity recovered" truth.(1) fit.params.(1);
  Alcotest.(check bool) "good r^2" true (fit.r_squared > 0.999)

let mm1_model_domain () =
  Alcotest.(check bool)
    "beyond capacity is infinite" true
    (N.Curve_fit.mm1_latency_model [| 1e-5; 1e9 |] 1.5e9 = infinity)

(* Properties *)

(* Samples drawn to collide: NaN, signed zeros, infinities and small
   integers recur, so ties and the -0./0. order are exercised. *)
let sample_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl [ Float.nan; 0.; -0.; infinity; neg_infinity; 1e-300; -1e-300 ];
        map float_of_int (int_range (-4) 4);
        float_range (-1e6) 1e6;
      ])

let percentile_case =
  QCheck.make
    ~print:(fun (xs, p) ->
      Printf.sprintf "p%h of [%s]" p
        (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") xs))))
    QCheck.Gen.(
      pair
        (array_size (int_range 1 60) sample_gen)
        (oneof [ oneofl [ 0.; 25.; 50.; 99.; 100. ]; float_range 0. 100. ]))

let properties =
  [
    prop "percentile selection equals the Float.compare sort bit for bit"
      ~count:1000 percentile_case (fun (xs, p) ->
        let before = Array.copy xs in
        let got = N.Stats.percentile xs p in
        (* the in-place form on a longer buffer reads only its prefix *)
        let buf = Array.append xs [| -1e308; Float.nan |] in
        let in_place = N.Stats.percentile_in_place buf ~len:(Array.length xs) p in
        let want = percentile_by_sort xs p in
        Array.for_all2 same_bits before xs
        && same_bits want got && same_bits want in_place
        && same_bits (-1e308) buf.(Array.length xs)
        && Float.is_nan buf.(Array.length xs + 1));
    prop "percentile is monotone in p"
      QCheck.(
        pair
          (array_of_size (Gen.int_range 1 50) (float_range (-1e3) 1e3))
          (pair (float_range 0. 100.) (float_range 0. 100.)))
      (fun (xs, (p1, p2)) ->
        let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
        N.Stats.percentile xs lo <= N.Stats.percentile xs hi +. 1e-9);
    prop "mean between min and max"
      QCheck.(array_of_size (Gen.int_range 1 50) (float_range (-1e3) 1e3))
      (fun xs ->
        let m = N.Stats.mean xs in
        N.Stats.percentile xs 0. -. 1e-9 <= m && m <= N.Stats.percentile xs 100. +. 1e-9);
    prop "exponential samples are positive"
      QCheck.(pair (float_range 0.1 100.) small_int)
      (fun (rate, seed) ->
        let rng = N.Rng.create ~seed in
        N.Dist.sample_exponential ~rate rng > 0.);
    prop "golden finds the vertex of shifted parabolas"
      QCheck.(float_range (-50.) 50.)
      (fun c ->
        let x, _ =
          N.Golden.minimize ~f:(fun x -> (x -. c) ** 2.) ~lo:(-100.) ~hi:100. ()
        in
        abs_float (x -. c) < 1e-4);
  ]

(* Lru *)

let lru_evicts_least_recent () =
  let c = Lognic_numerics.Lru.create ~capacity:2 in
  Lognic_numerics.Lru.add c "a" 1;
  Lognic_numerics.Lru.add c "b" 2;
  (* touch "a" so "b" is the eviction victim when "c" arrives *)
  Alcotest.(check (option int)) "hit a" (Some 1) (Lognic_numerics.Lru.find_opt c "a");
  Lognic_numerics.Lru.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lognic_numerics.Lru.find_opt c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Lognic_numerics.Lru.find_opt c "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Lognic_numerics.Lru.find_opt c "c")

let lru_refresh_updates_value () =
  let c = Lognic_numerics.Lru.create ~capacity:2 in
  Lognic_numerics.Lru.add c "k" 1;
  Lognic_numerics.Lru.add c "k" 2;
  Alcotest.(check (option int)) "latest value" (Some 2) (Lognic_numerics.Lru.find_opt c "k");
  (* one entry, not two: a second key fits without evicting "k" *)
  Lognic_numerics.Lru.add c "j" 3;
  Alcotest.(check (option int)) "no duplicate" (Some 2) (Lognic_numerics.Lru.find_opt c "k");
  check_raises_invalid "capacity >= 1" (fun () ->
      Lognic_numerics.Lru.create ~capacity:0)

let suite =
  [
    quick "rng: deterministic" rng_deterministic;
    quick "lru: evicts least-recently used" lru_evicts_least_recent;
    quick "lru: refresh in place" lru_refresh_updates_value;
    quick "rng: float is Random.State.float bit for bit" rng_float_matches_stdlib;
    quick "rng: seed changes stream" rng_seed_changes_stream;
    quick "rng: split reproducible" rng_split_independent;
    quick "rng: bounds" rng_bounds;
    slow "dist: sample statistics" dist_sample_statistics;
    quick "stats: basics" stats_basics;
    quick "stats: NaN policy" stats_nan_policy;
    quick "stats: percentile interpolation" stats_percentile_interpolates;
    quick "stats: percentile purity" stats_percentile_does_not_mutate;
    quick "stats: percentile of 1e5 equal samples" stats_percentile_all_equal;
    quick "stats: relative error" stats_relative_error;
    (* This name and "vec: centroid/clamp/linspace" below still list a
       deleted subject (the geometric mean, linspace): they are kept so
       the reported test ids stay stable. *)
    quick "stats: weighted/geometric means" stats_weighted;
    quick "stats: online accumulator" stats_online_matches_batch;
    quick "stats: empty inputs rejected" stats_empty_rejected;
    quick "vec: arithmetic" vec_arithmetic;
    quick "vec: centroid/clamp/linspace" vec_centroid_clamp;
    quick "nelder-mead: quadratic" nelder_mead_quadratic;
    quick "nelder-mead: rosenbrock" nelder_mead_rosenbrock;
    quick "nelder-mead: infinite regions" nelder_mead_rejects_infinite_regions;
    quick "golden: parabola" golden_section;
    quick "grid: 1d" grid_search;
    quick "constrained: penalty method" constrained_penalty;
    quick "constrained: box bounds" constrained_box_only;
    quick "curve-fit: linear" linear_fit;
    quick "curve-fit: nonlinear recovery" nonlinear_fit_recovers_parameters;
    quick "curve-fit: mm1 domain" mm1_model_domain;
  ]
  @ properties
