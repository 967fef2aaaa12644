type ceiling = { name : string; bandwidth : float }
type t = { label : string; peak_ops : float; ceilings : ceiling list }

let check_intensity intensity =
  if intensity <= 0. then invalid_arg "Roofline: intensity must be > 0"

let min_bw t =
  List.fold_left (fun acc c -> Float.min acc c.bandwidth) infinity t.ceilings

(* Attainable operation rate (ops/s) at the given packet intensity
   (ops per byte, > 0). *)
let attainable_ops t ~intensity =
  check_intensity intensity;
  Float.min t.peak_ops (min_bw t *. intensity)

let attainable_bytes t ~intensity = attainable_ops t ~intensity /. intensity

let compute_bound t ~intensity =
  check_intensity intensity;
  t.peak_ops <= min_bw t *. intensity

let binding_ceiling t ~intensity =
  if compute_bound t ~intensity then "compute"
  else
    let best =
      List.fold_left
        (fun acc c ->
          match acc with
          | None -> Some c
          | Some best -> if c.bandwidth < best.bandwidth then Some c else acc)
        None t.ceilings
    in
    match best with Some c -> c.name | None -> assert false

let of_vertex g ~(hw : Params.hardware) ~packet_size id =
  let v = Graph.vertex g id in
  if v.service.throughput = infinity then None
  else begin
    let peak_ops = Graph.effective_rate v.service /. packet_size in
    let incoming = Graph.in_edges g id in
    let sum f = List.fold_left (fun acc e -> acc +. f e) 0. incoming in
    let sum_alpha = sum (fun (e : Graph.edge) -> e.alpha) in
    let sum_beta = sum (fun (e : Graph.edge) -> e.beta) in
    let ceilings =
      (if sum_alpha > 0. then
         [ { name = Params.medium_name Interface; bandwidth = hw.bw_interface /. sum_alpha } ]
       else [])
      @ (if sum_beta > 0. then
           [ { name = Params.medium_name Memory; bandwidth = hw.bw_memory /. sum_beta } ]
         else [])
      @ List.filter_map
          (fun (e : Graph.edge) ->
            match e.bandwidth with
            | Some bw when e.delta > 0. ->
              Some
                {
                  name = Params.medium_name (Link (e.src, e.dst));
                  bandwidth = bw /. e.delta;
                }
            | Some _ | None -> None)
          incoming
    in
    (* an unconstrained vertex still gets a roofline: cap it with its
       own compute roof expressed as a ceiling *)
    let ceilings =
      if ceilings = [] then
        [ { name = "unconstrained"; bandwidth = peak_ops *. packet_size *. 1e3 } ]
      else ceilings
    in
    Some { label = v.label; peak_ops; ceilings }
  end
