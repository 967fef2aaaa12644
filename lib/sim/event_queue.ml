(* Binary min-heap on (time, seq), struct-of-arrays.

   Heap order lives in three parallel arrays — unboxed float [times],
   int [seqs] and int [slots] — and payloads stay put in a slot pool
   indexed by slot, so a sift moves only floats and ints and never hits
   the write barrier.  [slots] is always a permutation of the pool's
   indices: positions [0, n) hold the queued events' slots and
   positions [n, capacity) are the free slots, so the pool needs no
   separate free list.

   A push takes the next seq, which is larger than every queued seq, so
   sift-up compares times only; sift-down breaks time ties on seq.  Pop
   order is the exact lexicographic (time, seq) minimum, which makes
   simulations deterministic given a seed.

   Root removal is deferred: [take] hands out the root's payload and
   leaves the root empty ([hole]).  The engine's next operation is
   usually a push from the event just taken, which then writes its entry
   at the root and sifts it down — one sift instead of a sift-down of
   the last entry followed by a sift-up of the new one.  A [locate] that
   finds the root still empty first fills it with the last entry.

   No float is passed to a non-inlined call: [push] carries the time
   into [push_prepared] through the scratch cell [fs.(0)], and [locate]
   compares the horizon itself, so steady-state operations allocate
   nothing. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable payloads : 'a array;
  mutable filler : 'a array;  (* 1 element once non-empty: slot clearing *)
  fs : float array;  (* scratch: incoming push time *)
  mutable n : int;  (* heap positions in use, the empty root included *)
  mutable hole : bool;  (* root emptied by [take], not yet refilled *)
  mutable located : bool;  (* the last operation was a successful locate *)
  mutable next_seq : int;
  mutable resizes : int;  (* storage doublings since [create] *)
}

let create () =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    payloads = [||];
    filler = [||];
    fs = Array.make 1 0.;
    n = 0;
    hole = false;
    located = false;
    next_seq = 0;
    resizes = 0;
  }

let size t = if t.hole then t.n - 1 else t.n
let resizes t = t.resizes

let grow t payload =
  let cap = Array.length t.times in
  let bigger = max 16 (2 * cap) in
  let times = Array.make bigger 0. in
  let seqs = Array.make bigger 0 in
  let slots = Array.init bigger Fun.id in
  let payloads = Array.make bigger payload in
  Array.blit t.times 0 times 0 cap;
  Array.blit t.seqs 0 seqs 0 cap;
  Array.blit t.slots 0 slots 0 cap;
  Array.blit t.payloads 0 payloads 0 cap;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.payloads <- payloads;
  if cap = 0 then t.filler <- [| payload |] else t.resizes <- t.resizes + 1

(* Place the entry (fs.(0), seq, slot) into the vacant position [i] and
   sift it down the heap [0, n).  Top-level recursion over ints, with
   the time in the scratch cell: no closure or boxed float per event. *)
let rec sift_down t seq slot i =
  let time = t.fs.(0) in
  let left = (2 * i) + 1 in
  let c =
    if left >= t.n then -1
    else
      let right = left + 1 in
      if
        right < t.n
        && (t.times.(right) < t.times.(left)
           || (t.times.(right) = t.times.(left) && t.seqs.(right) < t.seqs.(left)))
      then right
      else left
  in
  if c >= 0 && (t.times.(c) < time || (t.times.(c) = time && t.seqs.(c) < seq))
  then begin
    t.times.(i) <- t.times.(c);
    t.seqs.(i) <- t.seqs.(c);
    t.slots.(i) <- t.slots.(c);
    sift_down t seq slot c
  end
  else begin
    t.times.(i) <- time;
    t.seqs.(i) <- seq;
    t.slots.(i) <- slot
  end

(* Sift a new entry up from the vacant position [i]: its seq beats every
   queued seq, so a parent at the same time stays above it. *)
let rec sift_up t seq slot i =
  let time = t.fs.(0) in
  let parent = (i - 1) / 2 in
  if i > 0 && time < t.times.(parent) then begin
    t.times.(i) <- t.times.(parent);
    t.seqs.(i) <- t.seqs.(parent);
    t.slots.(i) <- t.slots.(parent);
    sift_up t seq slot parent
  end
  else begin
    t.times.(i) <- time;
    t.seqs.(i) <- seq;
    t.slots.(i) <- slot
  end

let push_prepared t payload =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.located <- false;
  if t.hole then begin
    (* the root's slot was freed by [take]: reuse it *)
    t.hole <- false;
    let slot = t.slots.(0) in
    t.payloads.(slot) <- payload;
    sift_down t seq slot 0
  end
  else begin
    if t.n = Array.length t.times then grow t payload;
    let i = t.n in
    let slot = t.slots.(i) in
    t.n <- i + 1;
    t.payloads.(slot) <- payload;
    sift_up t seq slot i
  end

let[@inline] push t ~time payload =
  (* [x <> x] is the NaN test without the [Float.is_nan] call (whose
     float argument would box on every push) *)
  if time <> time then invalid_arg "Event_queue.push: NaN time";
  t.fs.(0) <- time;
  push_prepared t payload

(* Refill the empty root with the last entry; the freed slot moves to
   the first free position past the heap's end. *)
let fill_hole t =
  t.hole <- false;
  let freed = t.slots.(0) in
  let last = t.n - 1 in
  t.n <- last;
  if last > 0 then begin
    t.fs.(0) <- t.times.(last);
    sift_down t t.seqs.(last) t.slots.(last) 0
  end;
  t.slots.(last) <- freed

let[@inline] locate t ~horizon =
  if t.hole then fill_hole t;
  let found = t.n > 0 && t.times.(0) <= horizon in
  t.located <- found;
  found

let[@inline] located_time t = t.times.(0)

let take t =
  if not t.located then invalid_arg "Event_queue.take: no located event";
  t.located <- false;
  t.hole <- true;
  let slot = t.slots.(0) in
  let payload = t.payloads.(slot) in
  t.payloads.(slot) <- t.filler.(0);
  payload

(* Every slot becomes free; [slots] stays a permutation, so it needs no
   reset.  Seqs keep counting: only their order matters. *)
let clear t =
  t.n <- 0;
  t.hole <- false;
  t.located <- false;
  if Array.length t.filler > 0 then
    Array.fill t.payloads 0 (Array.length t.payloads) t.filler.(0)
