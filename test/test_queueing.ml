(* Tests for the queueing-theory substrate: closed forms, identities
   between the paper's Eq 12 and first-principles computation, and
   limiting behaviours. *)

open Helpers
module Q = Lognic_queueing

(* M/M/1 *)

let mm1_textbook () =
  (* rho = 0.5: Wq = rho/(mu - lambda) = 0.1s with mu = 10. *)
  let q = Q.Mm1.create ~lambda:5. ~mu:10. in
  check_close "Wq" 0.1 (Q.Mm1.mean_waiting_time q)

let mm1_unstable () =
  let q = Q.Mm1.create ~lambda:10. ~mu:5. in
  Alcotest.(check bool) "infinite Wq" true (Q.Mm1.mean_waiting_time q = infinity)

let mm1_validation () =
  check_raises_invalid "negative rate" (fun () -> Q.Mm1.create ~lambda:(-1.) ~mu:1.)

(* M/M/1/N *)

let mm1n_paper_worked_example () =
  (* rho = 0.5, N = 2: probabilities 4/7, 2/7, 1/7; L = 4/7;
     Q = L/lambda_e - 1/mu = 1/3 x (1/mu). Checked by hand against the
     paper's Eq 9-12 with mu = 1, lambda = 0.5. *)
  let q = Q.Mm1n.create ~lambda:0.5 ~mu:1. ~capacity:2 in
  let probs = (Q.Mm1n.solve q).probs in
  check_close ~tol:1e-12 "Pro_0" (4. /. 7.) probs.(0);
  check_close ~tol:1e-12 "Pro_1" (2. /. 7.) probs.(1);
  check_close ~tol:1e-12 "Pro_2" (1. /. 7.) probs.(2);
  check_close ~tol:1e-12 "blocking" (1. /. 7.) probs.(2);
  check_close ~tol:1e-12 "L" (4. /. 7.) (probs.(1) +. (2. *. probs.(2)));
  check_close ~tol:1e-9 "Q (Eq 9)" (1. /. 3.) (Q.Mm1n.solve q).waiting

let mm1n_closed_form_agrees () =
  (* The paper's algebraic Eq 12 must equal the first-principles
     L/lambda_e - 1/mu across loads and capacities. *)
  List.iter
    (fun rho ->
      List.iter
        (fun capacity ->
          let q = Q.Mm1n.create ~lambda:rho ~mu:1. ~capacity in
          check_close ~tol:1e-9
            (Printf.sprintf "Eq12 at rho=%g N=%d" rho capacity)
            (Q.Mm1n.solve q).waiting
            (Q.Mm1n.waiting_time_closed_form q))
        [ 1; 2; 5; 8; 32; 128 ])
    [ 0.05; 0.3; 0.7; 0.95; 1.2; 3. ]

let mm1n_rho_one_limit () =
  (* At rho = 1 the distribution is uniform; closed form uses the
     (N-1)/2 limit. *)
  let q = Q.Mm1n.create ~lambda:2. ~mu:2. ~capacity:4 in
  check_close ~tol:1e-9 "uniform states" 0.2 (Q.Mm1n.solve q).probs.(3);
  check_close ~tol:1e-6 "closed form at rho=1"
    (Q.Mm1n.solve q).waiting
    (Q.Mm1n.waiting_time_closed_form q)

let mm1n_state_vector () =
  (* The probability vector is the truncated geometric Pro_k ~ rho^k,
     sums to one, and indexes 0..N. *)
  let q = Q.Mm1n.create ~lambda:0.8 ~mu:1. ~capacity:6 in
  let probs = (Q.Mm1n.solve q).probs in
  Alcotest.(check int) "N+1 states" 7 (Array.length probs);
  Array.iteri
    (fun n p ->
      check_close ~tol:1e-12
        (Printf.sprintf "state %d" n)
        (probs.(0) *. (0.8 ** float_of_int n))
        p)
    probs;
  check_close ~tol:1e-12 "sums to one" 1. (Array.fold_left ( +. ) 0. probs)

let mm1n_far_overload_finite () =
  (* rho^N overflows at rho = 1e10, N = 64: the vector is normalized
     from the top state down, so it stays finite and the admitted
     fraction 1 - Pro_N is 1/rho to first order. At rho = 1e20 Pro_N
     rounds to 1; the mass below the top state is still 1/rho. Either
     way every admitted request waits behind a full queue: W ~ N/mu.
     Both solves read that admitted fraction, so at rho = 1e20 an
     M/M/c/N queue's W is N/(c mu) too (c = 1 and 2), and the
     accepted-arrival sojourn moments stay finite. *)
  let capacity = 64 in
  List.iter
    (fun rho ->
      let name what = Printf.sprintf "%s at rho = %g" what rho in
      let q = Q.Mm1n.create ~lambda:rho ~mu:1. ~capacity in
      let probs = (Q.Mm1n.solve q).probs in
      Alcotest.(check bool) (name "finite") true (Array.for_all Float.is_finite probs);
      check_close ~tol:1e-12 (name "sums to one") 1. (Array.fold_left ( +. ) 0. probs);
      let below_top = Array.fold_left ( +. ) 0. (Array.sub probs 0 capacity) in
      check_close ~tol:1e-9 (name "mass below the top state x rho") 1. (below_top *. rho);
      if rho < 1e16 then
        check_close ~tol:1e-5 (name "blocking ~ 1 - 1/rho") 1.
          ((1. -. probs.(capacity)) *. rho);
      check_close ~tol:1e-5 (name "W ~ N/mu") (float_of_int capacity)
        (Q.Mm1n.solve q).time_in_system)
    [ 1e10; 1e20 ];
  let rho = 1e20 in
  let full name servers (s : Q.Mm1n.solution) =
    let name what = Printf.sprintf "%s %s (c = %d)" name what servers in
    let n_over_cmu = float_of_int capacity /. float_of_int servers in
    check_close ~tol:1e-9 (name "W = N/(c mu)") n_over_cmu s.time_in_system;
    let mean, var = s.sojourn in
    Alcotest.(check bool) (name "finite moments") true
      (Float.is_finite mean && Float.is_finite var);
    check_close ~tol:1e-9 (name "sojourn mean = W") n_over_cmu mean
  in
  full "mm1n" 1 (Q.Mm1n.solve (Q.Mm1n.create ~lambda:rho ~mu:1. ~capacity));
  List.iter
    (fun servers ->
      full "mmcn" servers
        (Q.Mmcn.solve
           (Q.Mmcn.create
              ~lambda:(rho *. float_of_int servers)
              ~mu:1. ~servers ~capacity)))
    [ 1; 2 ]

let mm1n_closed_form_continuous_near_rho_one () =
  (* The geometric-series Eq 12 degenerates as rho -> 1 (0/0); the
     closed form must approach its (N-1)/2-based limit smoothly from
     both sides rather than blowing up on the removable singularity. *)
  List.iter
    (fun capacity ->
      let at eps =
        let q = Q.Mm1n.create ~lambda:(1. +. eps) ~mu:1. ~capacity in
        Q.Mm1n.waiting_time_closed_form q
      in
      let limit = at 0. in
      List.iter
        (fun eps ->
          check_close ~tol:1e-4
            (Printf.sprintf "N=%d eps=%g" capacity eps)
            limit (at eps);
          check_close ~tol:1e-4
            (Printf.sprintf "N=%d eps=-%g" capacity eps)
            limit (at (-.eps)))
        [ 1e-7; 1e-9; 1e-12 ])
    [ 2; 5; 16; 64 ]

let mm1n_converges_to_mm1 () =
  (* N -> infinity recovers the infinite-buffer queue when stable. *)
  let lambda = 0.6 and mu = 1. in
  let finite = Q.Mm1n.create ~lambda ~mu ~capacity:500 in
  let infinite = Q.Mm1.create ~lambda ~mu in
  check_within ~pct:0.01 "Wq converges"
    (Q.Mm1.mean_waiting_time infinite)
    (Q.Mm1n.solve finite).waiting;
  Alcotest.(check bool)
    "blocking vanishes" true
    ((Q.Mm1n.solve finite).probs.(500) < 1e-9)

let mm1n_overload_carries_capacity () =
  (* Far beyond saturation the queue ships ~mu. *)
  let q = Q.Mm1n.create ~lambda:100. ~mu:1. ~capacity:16 in
  let blocking = (Q.Mm1n.solve q).probs.(16) in
  check_within ~pct:2. "carried rate ~ mu" 1. (100. *. (1. -. blocking))

let mm1n_blocking_decreases_with_capacity () =
  let blocking n = (Q.Mm1n.solve (Q.Mm1n.create ~lambda:0.9 ~mu:1. ~capacity:n)).blocking in
  let rec check n =
    if n <= 8 then begin
      Alcotest.(check bool)
        (Printf.sprintf "P_block(%d) > P_block(%d)" n (n + 1))
        true
        (blocking n > blocking (n + 1));
      check (n + 1)
    end
  in
  check 1

(* M/M/c/N *)

let mmcn_reduces_to_mm1n () =
  List.iter
    (fun rho ->
      let a = Q.Mmcn.create ~lambda:rho ~mu:1. ~servers:1 ~capacity:8 in
      let b = Q.Mm1n.create ~lambda:rho ~mu:1. ~capacity:8 in
      check_close ~tol:1e-9 "blocking" (Q.Mm1n.solve b).probs.(8)
        (Q.Mmcn.solve a).blocking;
      check_close ~tol:1e-9 "waiting" (Q.Mm1n.solve b).waiting
        (Q.Mmcn.solve a).waiting)
    [ 0.2; 0.9; 1.5 ]

let mmcn_multi_server_waits_less () =
  (* Same utilization and capacity: more servers, less queueing. *)
  let single = Q.Mmcn.create ~lambda:0.9 ~mu:1. ~servers:1 ~capacity:64 in
  let multi = Q.Mmcn.create ~lambda:7.2 ~mu:1. ~servers:8 ~capacity:64 in
  check_close "same rho" (Q.Mmcn.utilization single) (Q.Mmcn.utilization multi);
  Alcotest.(check bool)
    "multi-server waits less" true
    ((Q.Mmcn.solve multi).waiting < 0.5 *. (Q.Mmcn.solve single).waiting)

let mmcn_probabilities_normalize () =
  let q = Q.Mmcn.create ~lambda:5. ~mu:1. ~servers:4 ~capacity:32 in
  let total = Array.fold_left ( +. ) 0. (Q.Mmcn.solve q).probs in
  check_close ~tol:1e-12 "sums to one" 1. total

let mmcn_extreme_load_stable () =
  (* The normalized-weights computation must not overflow. *)
  let q = Q.Mmcn.create ~lambda:1e6 ~mu:1. ~servers:2 ~capacity:256 in
  let p = (Q.Mmcn.solve q).blocking in
  Alcotest.(check bool) "finite" true (Float.is_finite p);
  Alcotest.(check bool) "nearly always blocked" true (p > 0.99)

let mmcn_validation () =
  check_raises_invalid "capacity below servers" (fun () ->
      Q.Mmcn.create ~lambda:1. ~mu:1. ~servers:4 ~capacity:2)

(* M/G/1 (Pollaczek-Khinchine) *)

let mg1_recovers_mm1_and_md1 () =
  let lambda = 0.7 and mu = 1. in
  check_close ~tol:1e-12 "scv=1 is M/M/1"
    (Q.Mm1.mean_waiting_time (Q.Mm1.create ~lambda ~mu))
    (Q.Mg1.mean_waiting_time (Q.Mg1.create ~lambda ~mu ~scv:1.));
  (* M/D/1's closed form: Wq = rho / (2 mu (1 - rho)), half of M/M/1's *)
  let rho = lambda /. mu in
  check_close ~tol:1e-12 "scv=0 is M/D/1"
    (rho /. (2. *. mu *. (1. -. rho)))
    (Q.Mg1.mean_waiting_time (Q.Mg1.create ~lambda ~mu ~scv:0.))

let mg1_service_mix () =
  (* bimodal 64B/1500B services: scv > 1 and waiting exceeds M/M/1's *)
  let services = [ (64e-9, 0.5); (1500e-9, 0.5) ] in
  let q = Q.Mg1.of_service_mix ~lambda:1e6 ~services in
  Alcotest.(check bool) "bimodal scv > 0.8" true (q.Q.Mg1.scv > 0.8);
  Alcotest.(check bool)
    "underestimate factor matches scv" true
    (abs_float (Q.Mg1.mm1_underestimate q -. ((1. +. q.Q.Mg1.scv) /. 2.)) < 1e-12);
  check_close ~tol:1e-12 "mean service blended" (782e-9) (1. /. q.Q.Mg1.mu)

let mg1_waiting_grows_with_scv () =
  let wq scv = Q.Mg1.mean_waiting_time (Q.Mg1.create ~lambda:0.8 ~mu:1. ~scv) in
  Alcotest.(check bool) "monotone in scv" true (wq 0. < wq 1. && wq 1. < wq 4.);
  Alcotest.(check bool)
    "unstable diverges" true
    (Q.Mg1.mean_waiting_time (Q.Mg1.create ~lambda:2. ~mu:1. ~scv:1.) = infinity);
  check_raises_invalid "negative scv" (fun () ->
      Q.Mg1.create ~lambda:1. ~mu:1. ~scv:(-1.));
  check_raises_invalid "bad mix" (fun () ->
      Q.Mg1.of_service_mix ~lambda:1. ~services:[ (0., 1.) ])

(* Little's law *)

let littles_helpers () =
  Alcotest.(check bool)
    "consistent" true
    (Q.Littles.consistent ~arrival_rate:2. ~time_in_system:3. ~number_in_system:6.1
       ());
  Alcotest.(check bool)
    "inconsistent" false
    (Q.Littles.consistent ~arrival_rate:2. ~time_in_system:3. ~number_in_system:9.
       ())

(* Properties *)

let properties =
  [
    prop "mm1n waiting time is non-negative and finite"
      QCheck.(pair (float_range 0.01 5.) (int_range 1 64))
      (fun (rho, capacity) ->
        let q = Q.Mm1n.create ~lambda:rho ~mu:1. ~capacity in
        let w = (Q.Mm1n.solve q).waiting in
        Float.is_finite w && w >= 0.);
    prop "mm1n closed form matches first principles"
      QCheck.(pair (float_range 0.01 3.) (int_range 1 64))
      (fun (rho, capacity) ->
        let q = Q.Mm1n.create ~lambda:rho ~mu:1. ~capacity in
        abs_float ((Q.Mm1n.solve q).waiting -. Q.Mm1n.waiting_time_closed_form q)
        < 1e-6 *. Float.max 1. (Q.Mm1n.solve q).waiting);
    prop "mm1n blocking grows with load"
      QCheck.(triple (float_range 0.05 2.) (float_range 0.05 1.) (int_range 1 32))
      (fun (rho, bump, capacity) ->
        let blocking lambda =
          (Q.Mm1n.solve (Q.Mm1n.create ~lambda ~mu:1. ~capacity)).blocking
        in
        let p1 = blocking rho and p2 = blocking (rho +. bump) in
        p2 >= p1 -. 1e-12);
    prop "mmcn effective rate never exceeds capacity or offered load"
      QCheck.(triple (float_range 0.1 20.) (int_range 1 8) (int_range 0 56))
      (fun (lambda, servers, extra) ->
        let capacity = servers + extra in
        let q = Q.Mmcn.create ~lambda ~mu:1. ~servers ~capacity in
        let carried = lambda *. (1. -. (Q.Mmcn.solve q).blocking) in
        carried <= lambda +. 1e-9
        && carried <= (float_of_int servers *. 1.) +. 1e-9);
  ]

let suite =
  [
    quick "mm1: textbook numbers" mm1_textbook;
    quick "mm1: instability" mm1_unstable;
    quick "mm1: validation" mm1_validation;
    quick "mm1n: paper worked example" mm1n_paper_worked_example;
    quick "mm1n: finite at rho >> 1" mm1n_far_overload_finite;
    quick "mm1n: Eq 12 identity" mm1n_closed_form_agrees;
    quick "mm1n: rho = 1 limit" mm1n_rho_one_limit;
    quick "mm1n: state-probability vector" mm1n_state_vector;
    quick "mm1n: closed form continuous near rho = 1"
      mm1n_closed_form_continuous_near_rho_one;
    quick "mm1n: converges to mm1" mm1n_converges_to_mm1;
    quick "mm1n: overload carries capacity" mm1n_overload_carries_capacity;
    quick "mm1n: blocking monotone in capacity" mm1n_blocking_decreases_with_capacity;
    quick "mmcn: reduces to mm1n" mmcn_reduces_to_mm1n;
    quick "mmcn: multi-server waits less" mmcn_multi_server_waits_less;
    quick "mmcn: probabilities normalize" mmcn_probabilities_normalize;
    quick "mmcn: extreme load stays finite" mmcn_extreme_load_stable;
    quick "mmcn: validation" mmcn_validation;
    quick "mg1: recovers mm1 and md1" mg1_recovers_mm1_and_md1;
    quick "mg1: service mixes" mg1_service_mix;
    quick "mg1: scv monotonicity" mg1_waiting_grows_with_scv;
    quick "littles: helpers" littles_helpers;
  ]
  @ properties
