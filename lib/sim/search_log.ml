module O = Lognic.Optimizer
module J = Telemetry.Json

type t = {
  scores : Telemetry.Series.t;
  best_curve : Telemetry.Series.t;
  knob_counts : (string, int) Hashtbl.t;
  mutable observations : int;
  mutable cache_hits : int;
  mutable best : (float * O.assignment list) option;
}

let create () =
  {
    scores = Telemetry.Series.create ~label:"score" ~interval:1. ();
    best_curve = Telemetry.Series.create ~label:"best_score" ~interval:1. ();
    knob_counts = Hashtbl.create 16;
    observations = 0;
    cache_hits = 0;
    best = None;
  }

(* One histogram bucket per knob the candidate touches, keyed by the
   assignment's kind and target vertex. *)
let knob_key = function
  | O.Set_throughput (id, _) -> Printf.sprintf "throughput:%d" id
  | O.Set_queue_capacity (id, _) -> Printf.sprintf "queue_capacity:%d" id
  | O.Set_split (id, _) -> Printf.sprintf "split:%d" id
  | O.Set_partition (id, _) -> Printf.sprintf "partition:%d" id
  | O.Set_accel (id, _) -> Printf.sprintf "accel:%d" id
  | O.Set_ingress_rate _ -> "ingress_rate"

let observer t (obs : O.observation) =
  t.observations <- t.observations + 1;
  if obs.cache_hit then t.cache_hits <- t.cache_hits + 1;
  let seq = float_of_int obs.sequence in
  Telemetry.Series.add t.scores ~time:seq ~value:obs.score;
  let improved =
    match t.best with None -> true | Some (s, _) -> obs.score < s
  in
  if improved then t.best <- Some (obs.score, obs.candidate);
  (match t.best with
  | Some (s, _) -> Telemetry.Series.add t.best_curve ~time:seq ~value:s
  | None -> ());
  List.iter
    (fun a ->
      let key = knob_key a in
      let n = Option.value (Hashtbl.find_opt t.knob_counts key) ~default:0 in
      Hashtbl.replace t.knob_counts key (n + 1))
    obs.candidate

let to_json t =
  let best =
    match t.best with
    | None -> J.Null
    | Some (score, assignment) ->
      J.Obj
        [
          ("score", J.Num score);
          ( "assignment",
            J.Arr
              (List.map
                 (fun a -> J.Str (Fmt.str "%a" O.pp_assignment a))
                 assignment) );
        ]
  in
  let histogram =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.knob_counts []
    |> List.sort compare
    |> List.map (fun (k, v) -> (k, J.Num (float_of_int v)))
  in
  J.versioned ~kind:"search_log"
    [
      ("evaluations", J.Num (float_of_int t.observations));
      ("cache_hits", J.Num (float_of_int t.cache_hits));
      ("best", best);
      ("best_curve", Telemetry.Series.to_json t.best_curve);
      ("scores", Telemetry.Series.to_json t.scores);
      ("knob_histogram", J.Obj histogram);
    ]
