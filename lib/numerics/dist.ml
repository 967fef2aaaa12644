(* The simulator draws one of these per service and per arrival, so
   the draw is inlinable and allocates nothing. *)
let[@inline] sample_exponential ~rate rng =
  let d = Rng.float rng 1. in
  (* [max 1e-300 d] spelled out: the polymorphic [max] is a call that
     boxes both floats; this is its exact definition specialized, so
     the result is bit-identical *)
  let u = if 1e-300 >= d then 1e-300 else d in
  -.log u /. rate
