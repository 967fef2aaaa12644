module J = Telemetry.Json

type class_info = {
  slowdown : float;
  pressure : (string * float) list;
  resource_caps : (string * float) list;
  model_p99 : float;
}

type interference_edge = {
  victim : int;
  aggressor : int;
  contribution : float;
}

type report = {
  base : Explain.report;
  per_class : class_info list;
  ranked : interference_edge list;
}

let run ?config ?queue_model ?contention g ~hw ~mix =
  let base = Explain.run ?config ?queue_model ?contention g ~hw ~mix in
  let n = List.length base.Explain.class_rows in
  let contended =
    match base.Explain.model.Lognic.Extensions.contention with
    | Some cs -> cs
    | None ->
      List.init n (fun _ ->
          {
            Lognic.Extensions.slowdown = 1.;
            pressure = [];
            resource_caps = [];
          })
  in
  (* Joint tail analysis: the p99 each class should see on the union
     queues, read off the joint model's per-class latency. The slowdown
     rescales only service rates, so [g] gives every class's overheads
     and data movement. *)
  let p99s =
    List.map
      (fun ((cls : Lognic.Traffic.t), _, _, lat) ->
        (Lognic.Tail.overall (Lognic.Tail.evaluate g ~hw ~traffic:cls lat))
          .Lognic.Tail.p99)
      base.Explain.model.Lognic.Extensions.classes
  in
  let per_class =
    List.map2
      (fun (c : Lognic.Extensions.class_contention) model_p99 ->
        {
          slowdown = c.slowdown;
          pressure = c.pressure;
          resource_caps = c.resource_caps;
          model_p99;
        })
      contended p99s
  in
  (* Rank victim<-aggressor pairs by their slowdown contribution
     M_ij · pressure_j; only pairs that actually interfere appear. *)
  let ranked =
    match contention with
    | None -> []
    | Some (spec : Lognic.Extensions.contention) ->
      let total_pressure =
        Array.of_list
          (List.map
             (fun (c : Lognic.Extensions.class_contention) ->
               List.fold_left (fun acc (_, p) -> acc +. p) 0. c.pressure)
             contended)
      in
      let edges = ref [] in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then begin
            let contribution = spec.interference.(i).(j) *. total_pressure.(j) in
            if contribution > 0. then
              edges :=
                { victim = i; aggressor = j; contribution } :: !edges
          end
        done
      done;
      List.stable_sort
        (fun a b -> Float.compare b.contribution a.contribution)
        (List.rev !edges)
  in
  { base; per_class; ranked }

let to_json t =
  let b = t.base in
  let assoc_json l = J.Obj (List.map (fun (k, v) -> (k, J.Num v)) l) in
  let class_json i row info =
    J.Obj
      (Explain.class_row_fields i row
      @ [
          ("slowdown", J.Num info.slowdown);
          ("pressure", assoc_json info.pressure);
          ("resource_caps", assoc_json info.resource_caps);
          ("model_p99", J.Num info.model_p99);
        ])
  in
  Explain.head_json ~kind:"contention" b
    [
      ( "classes",
        J.Arr
          (List.mapi
             (fun i (row, info) -> class_json i row info)
             (List.combine b.Explain.class_rows t.per_class)) );
      ( "interference",
        J.Arr
          (List.map
             (fun e ->
               J.Obj
                 [
                   ("victim", J.Num (float_of_int e.victim));
                   ("aggressor", J.Num (float_of_int e.aggressor));
                   ("contribution", J.Num e.contribution);
                 ])
             t.ranked) );
      ( "entities",
        J.Arr
          (List.mapi (fun i r -> Explain.row_to_json (i + 1) r) b.Explain.rows)
      );
    ]

let pp ppf t =
  Explain.pp ppf t.base;
  Format.fprintf ppf "  %-5s %9s %11s@\n" "class" "slowdown" "model-p99";
  List.iteri
    (fun i info ->
      Format.fprintf ppf "  %-5d %9.4f %11.4g@\n" i info.slowdown
        info.model_p99;
      List.iter
        (fun (name, p) ->
          Format.fprintf ppf "        pressure %-12s %9.4f@\n" name p)
        info.pressure)
    t.per_class;
  if t.ranked <> [] then begin
    Format.fprintf ppf "  interference (ranked):@\n";
    List.iter
      (fun e ->
        Format.fprintf ppf "    class %d <- class %d : +%.4f slowdown@\n"
          e.victim e.aggressor e.contribution)
      t.ranked
  end
