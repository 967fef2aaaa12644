(* Tests for the domain-pool parallel layer: order preservation,
   exception propagation, and the headline guarantee that parallel
   replicated simulation is bit-identical to the sequential driver. *)

open Helpers
module S = Lognic_sim
module G = Lognic.Graph
module U = Lognic.Units
module T = Lognic.Traffic
module P = Lognic_numerics.Parallel

let map_matches_list_map () =
  let xs = List.init 100 (fun i -> i - 50) in
  let f x = (x * x) - (3 * x) in
  Alcotest.(check (list int)) "order and values" (List.map f xs) (P.map ~jobs:4 f xs);
  Alcotest.(check (list int)) "jobs:1 sequential path" (List.map f xs) (P.map ~jobs:1 f xs);
  Alcotest.(check (list int)) "empty" [] (P.map ~jobs:4 f []);
  Alcotest.(check (list int)) "singleton" [ f 7 ] (P.map ~jobs:4 f [ 7 ])

let default_jobs_roundtrip () =
  (* [map] without [~jobs] uses the default. Each element of a batch of
     three waits (up to [patience] seconds of CPU time) until a second
     one has started, which only a second runner can bring about: with
     a default of 3 some element runs outside the caller's domain, with
     a default of 1, or one clamped to 1, none does. *)
  let caller = Domain.self () in
  let domains ~patience =
    let started = Atomic.make 0 in
    P.map
      (fun _ ->
        Atomic.incr started;
        let deadline = Sys.time () +. patience in
        while Atomic.get started < 2 && Sys.time () < deadline do
          Domain.cpu_relax ()
        done;
        Domain.self ())
      [ 0; 1; 2 ]
  in
  let sequential () = List.for_all (fun d -> d = caller) (domains ~patience:0.1) in
  Fun.protect
    ~finally:(fun () -> P.set_default_jobs (Domain.recommended_domain_count ()))
    (fun () ->
      P.set_default_jobs 1;
      Alcotest.(check bool) "default 1: sequential" true (sequential ());
      P.set_default_jobs 3;
      Alcotest.(check bool) "default 3: a second domain runs" true
        (List.exists (fun d -> d <> caller) (domains ~patience:10.));
      List.iter
        (fun jobs ->
          P.set_default_jobs jobs;
          Alcotest.(check bool)
            (Printf.sprintf "default %d clamped to 1: sequential" jobs)
            true (sequential ()))
        [ 0; -5 ])

let map_propagates_first_exception () =
  (* Several elements throw; the smallest input index must win at every
     job count (the guarantee callers rely on for determinism). *)
  let f x = if x mod 2 = 1 then failwith (Printf.sprintf "boom %d" x) else x in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "first failure wins at jobs:%d" jobs)
        (Failure "boom 1")
        (fun () -> ignore (P.map ~jobs f (List.init 10 Fun.id))))
    [ 1; 4 ]

let nested_map_completes () =
  (* A map whose elements themselves map must not deadlock even when
     the outer batch occupies every pool worker. *)
  let inner x = P.map ~jobs:4 (fun y -> x + y) [ 1; 2; 3 ] in
  Alcotest.(check (list (list int)))
    "nested results"
    (List.map (fun x -> [ x + 1; x + 2; x + 3 ]) [ 10; 20; 30; 40 ])
    (P.map ~jobs:4 inner [ 10; 20; 30; 40 ])

(* Netsim.execute_replicated on the domain pool is bit-identical to its
   sequential run (jobs:1) at any job count: same seeds, same fold. *)


let replicated_bit_identical () =
  let g = pipeline () in
  let mix = [ (T.make ~rate:(2. *. U.gbps) ~packet_size:1500., 1.) ] in
  let config = S.Netsim.Config.(default |> with_horizon 0.02) in
  let spec = S.Netsim.Run.make ~config g ~hw ~mix in
  let sequential = S.Netsim.execute_replicated ~jobs:1 ~runs:4 spec in
  List.iter
    (fun jobs ->
      let parallel = S.Netsim.execute_replicated ~jobs ~runs:4 spec in
      Alcotest.(check bool)
        (Printf.sprintf "bit-identical at jobs:%d" jobs)
        true
        (sequential = parallel))
    [ 2; 4 ];
  check_raises_invalid "needs >= 2 runs" (fun () ->
      ignore (S.Netsim.execute_replicated ~jobs:4 ~runs:1 spec))

let suite =
  [
    quick "map: matches List.map" map_matches_list_map;
    quick "default jobs: set and clamp" default_jobs_roundtrip;
    quick "map: first exception wins" map_propagates_first_exception;
    quick "map: nested calls don't deadlock" nested_map_completes;
    quick "execute_replicated: bit-identical to sequential" replicated_bit_identical;
  ]
