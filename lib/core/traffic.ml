type t = { rate : float; packet_size : float }

let make ~rate ~packet_size =
  if not (Float.is_finite rate && rate > 0.) then
    invalid_arg "Traffic.make: rate must be finite and > 0";
  if not (Float.is_finite packet_size && packet_size > 0.) then
    invalid_arg "Traffic.make: packet_size must be finite and > 0";
  { rate; packet_size }

let packet_rate t = t.rate /. t.packet_size

type mix = (t * float) list

let mix classes =
  if classes = [] then invalid_arg "Traffic.mix: empty";
  if List.exists (fun (_, w) -> w < 0.) classes then
    invalid_arg "Traffic.mix: negative weight";
  if List.fold_left (fun acc (_, w) -> acc +. w) 0. classes <= 0. then
    invalid_arg "Traffic.mix: zero total weight";
  classes

let mix_of_sizes ~rate ~sizes =
  if rate <= 0. then invalid_arg "Traffic.mix_of_sizes: rate must be > 0";
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. sizes in
  if total <= 0. then invalid_arg "Traffic.mix_of_sizes: zero total weight";
  mix
    (List.map
       (fun (size, w) ->
         (make ~rate:(rate *. w /. total) ~packet_size:size, w /. total))
       sizes)

let normalize_weights classes =
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. classes in
  List.map (fun (c, w) -> (c, w /. total)) classes

let mean_packet_size classes =
  let normalized = normalize_weights classes in
  List.fold_left (fun acc (c, w) -> acc +. (c.packet_size *. w)) 0. normalized

let total_rate classes = List.fold_left (fun acc (c, _) -> acc +. c.rate) 0. classes

let total_packet_rate classes =
  List.fold_left (fun acc (c, _) -> acc +. packet_rate c) 0. classes

let mean_packet_size_by_packets classes =
  (* Harmonic in the byte weights: total bytes/s over total packets/s is
     the size of the average *packet*, which is what packet-rate
     conversions (lambda = rate / size) need. The byte-weighted
     [mean_packet_size] systematically overweights large packets there:
     a 50/50-byte split of 64B and 1500B packets averages 782 B/packet
     by bytes but only ~123 B/packet by packets. *)
  total_rate classes /. total_packet_rate classes

let pp ppf t =
  Fmt.pf ppf "%.2f Gbps of %gB packets" (Units.to_gbps t.rate) t.packet_size
