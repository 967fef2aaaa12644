type t = Random.State.t

let create ~seed = Random.State.make [| seed; 0x10619c; seed lxor 0x5f3759df |]

let split t =
  let a = Random.State.bits t and b = Random.State.bits t in
  Random.State.make [| a; b; Random.State.bits t |]

(* [Random.State.float] is [rawfloat s *. bound], and the recursive
   [rawfloat] returns a boxed float. This is its body unrolled once:
   the same 53 bits of one [bits64] draw, scaled the same way, so the
   stream and every result are bit-identical, but the inlined draw
   stays unboxed. The stdlib call is [rawfloat]'s own redraw, taken
   with probability 2^-53. *)
let[@inline] float t bound =
  assert (bound > 0.);
  let n = Int64.shift_right_logical (Random.State.bits64 t) 11 in
  if n <> 0L then Int64.to_float n *. 0x1.p-53 *. bound
  else Random.State.float t bound

let[@inline] int t bound =
  assert (bound > 0);
  Random.State.int t bound

let[@inline] bits t = Random.State.bits t
