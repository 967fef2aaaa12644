(* Smoke tests for the Lognic_check fuzzing library: the runner's
   outcome plumbing (pass, fail, JSON) and a fixed-seed mini run of
   each property family so a broken generator or property fails the
   ordinary test suite, not just the slower `lognic check` CLI. *)

open Helpers
module C = Lognic_check
module J = Lognic_sim.Telemetry.Json

let runner_reports_passes_and_failures () =
  let pass =
    QCheck.Test.make ~count:20 ~name:"tautology" QCheck.small_nat (fun _ -> true)
  in
  let fail =
    QCheck.Test.make ~count:20 ~name:"contradiction" QCheck.small_nat
      (fun n -> n < 0)
  in
  match C.Runner.run ~seed:7 [ pass; fail ] with
  | [ a; b ] ->
    Alcotest.(check string) "name" "tautology" a.C.Runner.name;
    Alcotest.(check bool) "passed" true a.C.Runner.passed;
    Alcotest.(check bool) "no message" true (a.C.Runner.message = None);
    Alcotest.(check bool) "failed" false b.C.Runner.passed;
    Alcotest.(check bool) "failure carries a message" true
      (b.C.Runner.message <> None);
    Alcotest.(check bool) "all_passed is false" false (C.Runner.all_passed [ a; b ]);
    Alcotest.(check bool) "all_passed on the good half" true
      (C.Runner.all_passed [ a ])
  | _ -> Alcotest.fail "two outcomes expected"

let runner_is_deterministic () =
  (* same seed, same verdict and same counterexample report *)
  let test () =
    QCheck.Test.make ~count:50 ~name:"flaky-looking" QCheck.small_nat
      (fun n -> n <> 17)
  in
  let run () = List.hd (C.Runner.run ~seed:42 [ test () ]) in
  let a = run () and b = run () in
  Alcotest.(check bool) "same verdict" a.C.Runner.passed b.C.Runner.passed;
  Alcotest.(check bool) "same message" true (a.C.Runner.message = b.C.Runner.message)

let outcome_json_shape () =
  let o = { C.Runner.name = "p"; passed = false; message = Some "boom" } in
  let j = C.Runner.outcome_to_json o in
  Alcotest.(check bool) "name" true (J.member "name" j = Some (J.Str "p"));
  Alcotest.(check bool) "passed" true (J.member "passed" j = Some (J.Bool false));
  Alcotest.(check bool) "message" true (J.member "message" j = Some (J.Str "boom"))

let generators_build_valid_scenarios () =
  let st = Random.State.make [| 11 |] in
  for _ = 1 to 25 do
    let s = C.Gen.wild st in
    (match Lognic.Graph.validate s.C.Gen.graph with
    | Ok () -> ()
    | Error es -> Alcotest.fail ("wild graph invalid: " ^ String.concat "; " es));
    let s = C.Gen.low_load_chain st in
    match Lognic.Graph.validate s.C.Gen.graph with
    | Ok () -> ()
    | Error es -> Alcotest.fail ("chain graph invalid: " ^ String.concat "; " es)
  done

(* One tiny fixed-seed iteration of the full suite: every generator and
   property executes end to end. The CLI runs the real counts. *)
let mini_suite_passes () =
  let outcomes = C.Runner.run ~seed:42 (C.Props.suite ~scale:0.01 ()) in
  List.iter
    (fun (o : C.Runner.outcome) ->
      if not o.passed then
        Alcotest.failf "property %s failed: %s" o.name
          (Option.value ~default:"" o.message))
    outcomes;
  Alcotest.(check int) "every property ran" 24 (List.length outcomes)

let suite =
  [
    quick "check: runner separates passes from failures" runner_reports_passes_and_failures;
    quick "check: runner is seed-deterministic" runner_is_deterministic;
    quick "check: outcome JSON shape" outcome_json_shape;
    quick "check: generators build valid graphs" generators_build_valid_scenarios;
    slow "check: mini fuzz suite passes" mini_suite_passes;
  ]
