(* The repo's performance ledger.

     ledger.exe bench --workload W [--seed N] [--seconds S] [--trace 0|1]
                      [--spans PATH]
       One workload in this process. Untraced (--trace 0): after one
       warm-up, time the workload's call back to back for S seconds
       with set-up reps in between, then print the end-to-end metrics
       and check them against BENCHMARK.json. Traced
       (--trace 1): time the workload with spans off and on, run every
       per-layer probe, and print the per-layer metrics. The last line
       of stdout is always one JSON object:
         {"correct", "attempted", "failed", "metrics": {NAME: {"value", "unit"}}}

     ledger.exe run   [--seed N] [--workload W]... [--seconds S]
                      [--json OUT] [--commit HASH]
     ledger.exe trace [--seed N] [--workload W]... [--seconds S]
                      [--json OUT] [--spans SPANS.json] [--commit HASH]
       Every workload (or the ones named), each in its own process, one
       at a time; prints every metric with its unit and appends the
       results to the ledger OUT. trace also merges the spans of every
       workload into one Chrome trace. Exit 1 if a check failed.

     ledger.exe compare A.json B.json
       B against A for every end-to-end metric and workload, under the
       bounds in BENCHMARK.json: ok, worse or unresolved. Exit 1 on any
       worse.

   Exit code 2 on a usage error. Build with the release profile: the
   dev profile's -opaque inflates the allocation metrics. *)

module Json = Harness.Json

let usage () =
  prerr_endline
    "usage: ledger.exe bench --workload W [--seed N] [--seconds S] [--trace 0|1] \
     [--spans PATH]\n\
    \       ledger.exe run|trace [--seed N] [--workload W]... [--seconds S] \
     [--json OUT] [--spans PATH] [--commit HASH]\n\
    \       ledger.exe compare A.json B.json";
  exit 2

type cli = {
  workloads : string list;
  seed : int;
  seconds : float;
  traced : bool;
  json : string option;
  spans : string option;
  commit : string;
  files : string list;
}

let parse args =
  let int_arg v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let rec walk c = function
    | [] -> { c with workloads = List.rev c.workloads; files = List.rev c.files }
    | "--workload" :: w :: rest -> walk { c with workloads = w :: c.workloads } rest
    | "--seed" :: v :: rest -> walk { c with seed = int_arg v } rest
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0. -> walk { c with seconds = s } rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> walk { c with traced = v = "1" } rest
    | "--json" :: p :: rest -> walk { c with json = Some p } rest
    | "--spans" :: p :: rest -> walk { c with spans = Some p } rest
    | "--commit" :: h :: rest -> walk { c with commit = h } rest
    | a :: _ when String.starts_with ~prefix:"--" a -> usage ()
    | file :: rest -> walk { c with files = file :: c.files } rest
  in
  walk
    {
      workloads = [];
      seed = 7;
      seconds = 25.;
      traced = false;
      json = None;
      spans = None;
      commit = "unknown";
      files = [];
    }
    args

let find_workload name =
  match List.assoc_opt name Workloads.all with
  | Some make -> make
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n" name
      (String.concat ", " (List.map fst Workloads.all));
    exit 2

(* --- BENCHMARK.json --- *)

type declared = { d_name : string; d_unit : string; d_better : string; d_bound : float }

(* Read from the directory the ledger runs in: the repo root. *)
let benchmark = "BENCHMARK.json"

let declared section =
  let str k o = match Json.member k o with Some (Json.Str s) -> s | _ -> "" in
  match Json.member section (Harness.read_json benchmark) with
  | Some (Json.Arr items) ->
    List.map
      (fun o ->
        {
          d_name = str "name" o;
          d_unit = str "unit" o;
          d_better = str "better" o;
          d_bound =
            (match Json.member "bound" o with Some (Json.Num b) -> b | _ -> nan);
        })
      items
  | _ -> failwith (Printf.sprintf "%s: no %s list" benchmark section)

(* --- bench: one workload in this process --- *)

type result = {
  metrics : (string * string * float) list;
  samples : (string * float list) list;
      (** per-rep values behind a metric, summarized in the ledger *)
}

(* The call back to back until the next rep would end past [seconds]
   (but at least [min_reps] reps), with [between n] run untimed before
   rep [n]. Every rep runs the workload's own checks and must reproduce
   the first rep's bytes. *)
let timed_reps ?(between = fun _ -> ()) (w : Workloads.t) ~seconds ~min_reps =
  let t0 = Harness.now () in
  let first = ref None in
  let rec loop n walls =
    let last = match walls with [] -> 0. | dt :: _ -> dt in
    if n >= min_reps && Harness.now () -. t0 +. last > seconds then
      List.rev walls
    else begin
      between n;
      match Harness.time (fun () -> Harness.span "rep" w.Workloads.call) with
      | exception e ->
        Harness.check ("call raised " ^ Printexc.to_string e) false;
        List.rev walls
      | check_rep, dt ->
        let o : Workloads.outcome = check_rep () in
        List.iter (fun (name, ok) -> Harness.check name ok) o.Workloads.checks;
        (match !first with
        | None -> first := Some o.Workloads.bytes
        | Some b -> Harness.check "output identical to the first rep" (b = o.Workloads.bytes));
        loop (n + 1) (dt :: walls)
    end
  in
  loop 0 []

(* wall_s is the fastest rep. Noise on a shared host only ever adds
   time, and it comes in bursts of seconds (memory-bandwidth contention
   from neighbours), so the median of a run's reps tracks how much of
   the run such bursts covered, while the fastest rep tracks the code.
   setup_s is the median of set-up reps taken a few at a time between
   the timed reps, so they sample the whole run rather than one moment
   of it. *)
let untraced (w : Workloads.t) ~seconds =
  let setup = ref [] in
  let sample_setup ~min_reps ~max_reps =
    let xs = Harness.time_samples ~min_reps ~min_seconds:0.01 ~max_reps w.Workloads.setup in
    setup := List.rev_append xs !setup
  in
  w.Workloads.warmup ();
  let walls =
    timed_reps w ~seconds ~min_reps:1 ~between:(fun _ ->
        sample_setup ~min_reps:2 ~max_reps:20)
  in
  if walls = [] then failwith "no rep completed";
  let missing = 21 - List.length !setup in
  if missing > 0 then sample_setup ~min_reps:missing ~max_reps:missing;
  let setup = List.rev !setup in
  {
    metrics =
      [
        ("wall_s", "s", List.fold_left Float.min infinity walls);
        ("setup_s", "s", Harness.median setup);
        ("peak_rss_mb", "MiB", Harness.peak_rss_mb ());
      ];
    samples = [ ("wall_s", walls); ("setup_s", setup) ];
  }

(* Spans off on even reps and on on odd ones, inside half the run; the
   ratio of the medians is the tracing overhead. *)
let traced ~seed (w : Workloads.t) ~seconds =
  let majors () = (Gc.quick_stat ()).Gc.major_collections in
  w.Workloads.warmup ();
  let m0 = majors () in
  let walls =
    timed_reps w ~seconds:(seconds /. 2.) ~min_reps:2
      ~between:(fun n -> Harness.spans_on := n mod 2 = 1)
  in
  let reps = List.length walls in
  let majors_per_rep = float_of_int (majors () - m0) /. float_of_int reps in
  let pick parity = List.filteri (fun i _ -> i mod 2 = parity) walls in
  let overhead = Harness.median (pick 1) /. Harness.median (pick 0) in
  Harness.spans_on := true;
  let rows = Layers.run ~seed in
  {
    metrics =
      rows
      @ [
          ("trace.overhead", "ratio", overhead);
          ("gc.major_collections", "count", majors_per_rep);
        ];
    samples = [];
  }

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (name, unit, value) ->
         (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ]))
       metrics)

let detail_prefix = "ledger-detail "

let bench c =
  let name = match c.workloads with [ w ] -> w | _ -> usage () in
  let w = (find_workload name) ~seed:c.seed in
  Lognic_numerics.Parallel.set_default_jobs w.Workloads.jobs;
  let r = if c.traced then traced ~seed:c.seed w ~seconds:c.seconds else untraced w ~seconds:c.seconds in
  List.iter
    (fun (n, _, v) -> Harness.check (n ^ " is finite") (Float.is_finite v))
    r.metrics;
  (* the metric set printed must be the one BENCHMARK.json declares *)
  if Sys.file_exists benchmark then begin
    let section = if c.traced then "per_layer" else "end_to_end" in
    let want =
      List.sort compare
        (List.map (fun d -> (d.d_name, d.d_unit)) (declared section))
    in
    let got = List.sort compare (List.map (fun (n, u, _) -> (n, u)) r.metrics) in
    Harness.check ("metrics match BENCHMARK.json " ^ section) (want = got)
  end;
  Option.iter
    (fun path ->
      Harness.write_file path
        (Json.to_string (Harness.chrome_trace (Harness.spans_to_json ~pid:1))))
    c.spans;
  List.iter (fun (n, u, v) -> Printf.printf "%-36s %14.6g %s\n" n v u) r.metrics;
  let summary xs =
    Json.Obj
      [
        ("n", Json.Num (float_of_int (List.length xs)));
        ("min", Json.Num (List.fold_left Float.min infinity xs));
        ("median", Json.Num (Harness.median xs));
        ("max", Json.Num (List.fold_left Float.max neg_infinity xs));
      ]
  in
  print_endline
    (detail_prefix
    ^ Json.to_string (Json.Obj (List.map (fun (n, xs) -> (n, summary xs)) r.samples)));
  let ch = Harness.checks in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (ch.Harness.failed = 0));
            ("attempted", Json.Num (float_of_int ch.Harness.attempted));
            ("failed", Json.Num (float_of_int ch.Harness.failed));
            ("metrics", metrics_json r.metrics);
          ]))

(* --- run / trace: one process per workload, results into the ledger --- *)

let spawn args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Ok out
  | _ -> Error out

let entry_of ~c ~kind ~workload lines =
  let last = List.nth lines (List.length lines - 1) in
  let result = match Json.of_string last with Ok j -> j | Error e -> failwith e in
  let reps =
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:detail_prefix l then
          let n = String.length detail_prefix in
          Result.to_option (Json.of_string (String.sub l n (String.length l - n)))
        else None)
      lines
  in
  let field k = Option.value (Json.member k result) ~default:Json.Null in
  Json.Obj
    [
      ("kind", Json.Str kind);
      ("workload", Json.Str workload);
      ("seed", Json.Num (float_of_int c.seed));
      ("seconds", Json.Num c.seconds);
      ("commit", Json.Str c.commit);
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("correct", field "correct");
      ("attempted", field "attempted");
      ("failed", field "failed");
      ("metrics", field "metrics");
      ("reps", Option.value reps ~default:(Json.Obj []));
    ]

(* The ledger is one JSON object with one entry per line, so appending
   a set and diffing two ledgers stay readable. *)
let write_ledger path entries =
  Harness.write_file path
    ("{\"schema\": \"ledger\", \"entries\": [\n"
    ^ String.concat ",\n" (List.map Json.to_string entries)
    ^ "\n]}\n")

let ledger_entries path =
  if not (Sys.file_exists path) then []
  else
    match Json.member "entries" (Harness.read_json path) with
    | Some (Json.Arr es) -> es
    | _ -> failwith (path ^ ": not a ledger")

(* One Chrome trace from the per-workload span files, one process
   track per workload. *)
let merge_spans out parts =
  let events =
    List.concat
      (List.mapi
         (fun i (w, part) ->
           let pid = Json.Num (float_of_int (i + 1)) in
           let with_pid = function
             | Json.Obj kvs ->
               Json.Obj (List.map (fun (k, v) -> if k = "pid" then (k, pid) else (k, v)) kvs)
             | e -> e
           in
           let evs =
             match Json.member "traceEvents" (Harness.read_json part) with
             | Some (Json.Arr evs) -> List.map with_pid evs
             | _ -> []
           in
           Sys.remove part;
           Json.Obj
             [
               ("name", Json.Str "process_name");
               ("ph", Json.Str "M");
               ("pid", pid);
               ("args", Json.Obj [ ("name", Json.Str w) ]);
             ]
           :: evs)
         parts)
  in
  Harness.write_file out (Json.to_string (Harness.chrome_trace events))

let collect c ~kind =
  let names = if c.workloads = [] then List.map fst Workloads.all else c.workloads in
  List.iter (fun n -> let _known = find_workload n in ()) names;
  let spans = if kind = "trace" then c.spans else None in
  let run_one w =
    Printf.printf "== %s %s (seed %d) ==\n%!" kind w c.seed;
    let part = Option.map (fun p -> Printf.sprintf "%s.%s.part" p w) spans in
    let args =
      [ "bench"; "--workload"; w; "--seed"; string_of_int c.seed;
        "--seconds"; Printf.sprintf "%g" c.seconds;
        "--trace"; (if kind = "trace" then "1" else "0") ]
      @ match part with Some p -> [ "--spans"; p ] | None -> []
    in
    match spawn args with
    | Error lines ->
      List.iter print_endline lines;
      Printf.printf "%s: benchmark process failed\n%!" w;
      None
    | Ok lines ->
      List.iter
        (fun l -> if not (String.starts_with ~prefix:detail_prefix l) then print_endline l)
        lines;
      Some (entry_of ~c ~kind ~workload:w lines, Option.map (fun p -> (w, p)) part)
  in
  let done_ = List.filter_map run_one names in
  Option.iter (fun out -> write_ledger out (ledger_entries out @ List.map fst done_)) c.json;
  Option.iter (fun out -> merge_spans out (List.filter_map snd done_)) spans;
  let correct (e, _) = Json.member "correct" e = Some (Json.Bool true) in
  if List.length done_ < List.length names || not (List.for_all correct done_) then exit 1

(* --- compare --- *)

(* One value per run entry of [workload]: the metric as the benchmark
   reported it. *)
let values_of entries ~workload ~metric =
  List.filter_map
    (fun e ->
      if Json.member "kind" e = Some (Json.Str "run")
         && Json.member "workload" e = Some (Json.Str workload)
      then
        match
          Option.bind (Option.bind (Json.member "metrics" e) (Json.member metric)) (Json.member "value")
        with
        | Some (Json.Num x) -> Some x
        | _ -> None
      else None)
    entries

let compare_ledgers c =
  let a_path, b_path = match c.files with [ a; b ] -> (a, b) | _ -> usage () in
  let a = ledger_entries a_path and b = ledger_entries b_path in
  let metrics = declared "end_to_end" in
  Printf.printf "%-18s %-12s %12s %12s %8s %8s %6s  %s\n" "workload" "metric" "A median"
    "B median" "change" "spread" "bound" "verdict";
  let worse = ref false in
  List.iter
    (fun (workload, _) ->
      List.iter
        (fun d ->
          let xa = values_of a ~workload ~metric:d.d_name
          and xb = values_of b ~workload ~metric:d.d_name in
          if xa <> [] && xb <> [] then begin
            let ma = Harness.median xa and mb = Harness.median xb in
            let change = (mb -. ma) /. Float.abs ma in
            let worse_by = if d.d_better = "higher" then -.change else change in
            let spread = Float.max (Harness.spread xa) (Harness.spread xb) in
            let b_always_better =
              if d.d_better = "higher" then
                List.fold_left Float.min infinity xb > List.fold_left Float.max neg_infinity xa
              else List.fold_left Float.max neg_infinity xb < List.fold_left Float.min infinity xa
            in
            let verdict =
              if spread > d.d_bound && not b_always_better then "unresolved"
              else if worse_by > d.d_bound then "worse"
              else "ok"
            in
            if verdict = "worse" then worse := true;
            Printf.printf "%-18s %-12s %12.6g %12.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n" workload
              d.d_name ma mb (100. *. change) (100. *. spread) (100. *. d.d_bound) verdict
          end)
        metrics)
    Workloads.all;
  if !worse then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "bench" :: args -> bench (parse args)
  | "run" :: args -> collect (parse args) ~kind:"run"
  | "trace" :: args -> collect (parse args) ~kind:"trace"
  | "compare" :: args -> compare_ledgers (parse args)
  | _ -> usage ()
