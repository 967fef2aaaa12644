(* The simulator's weighted choices: a packet's class, its out-edge at
   each hop, its tenant and its flow. Both draws are inlinable and
   allocate nothing. *)

(* The running sum is a local ref that never escapes, so it stays
   unboxed. It adds left to right, so with [total] summed the same way
   the last partial sum equals [total] bit for bit and every draw lands
   inside the table; the [n - 1] bound would absorb any remainder
   anyway. *)
let[@inline] scan rng weights ~total =
  let target = Rng.float rng total in
  let n = Array.length weights in
  let i = ref 0 and acc = ref 0. in
  while
    !i < n - 1
    && (acc := !acc +. weights.(!i);
        target >= !acc)
  do
    incr i
  done;
  !i

let bits_range = 1 lsl 30

type alias = { a_n : int; a_prob : int array; a_alias : int array }

let alias probs =
  let n = Array.length probs in
  (* Each index's mass on the 30-bit lattice, scaled by n so the mean
     is exactly [bits_range]: the gaps between consecutive cumulative
     edges, with the last edge pinned so a 30-bit draw can never fall
     off the end. Masses are n·Δbits, inside 63-bit ints for n up to
     2^32. *)
  let w = Array.make n 0 in
  let running = ref 0. and edge = ref 0 in
  for i = 0 to n - 1 do
    running := !running +. probs.(i);
    let next =
      if i = n - 1 then bits_range
      else int_of_float (!running *. float_of_int bits_range)
    in
    w.(i) <- n * (next - !edge);
    edge := next
  done;
  let prob = Array.make n bits_range in
  let alias = Array.init n (fun i -> i) in
  (* Walker's two-stack split in exact integer arithmetic, both stacks
     in one array: the small stack grows up from slot 0, the large one
     down from slot n - 1. Every index sits on exactly one, so they
     never meet. *)
  let stack = Array.make n 0 in
  let ns = ref 0 and nl = ref 0 in
  for i = 0 to n - 1 do
    if w.(i) < bits_range then begin
      stack.(!ns) <- i;
      incr ns
    end
    else begin
      stack.(n - 1 - !nl) <- i;
      incr nl
    end
  done;
  while !ns > 0 && !nl > 0 do
    decr ns;
    let l = stack.(!ns) in
    let g = stack.(n - !nl) in
    prob.(l) <- w.(l);
    alias.(l) <- g;
    w.(g) <- w.(g) - (bits_range - w.(l));
    if w.(g) < bits_range then begin
      decr nl;
      stack.(!ns) <- g;
      incr ns
    end
  done;
  (* leftovers on either stack sit exactly on the mean *)
  { a_n = n; a_prob = prob; a_alias = alias }

(* [u * n] splits the 30-bit draw into a bucket index (high bits) and
   an acceptance threshold (low bits): one shared draw. *)
let[@inline] draw t u =
  let m = u * t.a_n in
  let j = m lsr 30 in
  if m land (bits_range - 1) < t.a_prob.(j) then j else t.a_alias.(j)
