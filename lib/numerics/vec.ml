type t = float array

let check_same_length a b name =
  if Array.length a <> Array.length b then invalid_arg (name ^ ": length mismatch")

let map2 f a b =
  check_same_length a b "Vec.map2";
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let sub a b = map2 ( -. ) a b
let scale k a = Array.map (fun x -> k *. x) a
let axpy k x y = map2 (fun xi yi -> (k *. xi) +. yi) x y

let dot a b =
  check_same_length a b "Vec.dot";
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm2 a = sqrt (dot a a)
let dist a b = norm2 (sub a b)

let centroid = function
  | [] -> invalid_arg "Vec.centroid: empty list"
  | first :: rest ->
    let acc = Array.copy first in
    List.iter
      (fun v ->
        check_same_length acc v "Vec.centroid";
        Array.iteri (fun i x -> acc.(i) <- acc.(i) +. x) v)
      rest;
    let n = float_of_int (1 + List.length rest) in
    Array.map (fun x -> x /. n) acc

let clamp ~lo ~hi v =
  check_same_length lo v "Vec.clamp";
  check_same_length hi v "Vec.clamp";
  Array.init (Array.length v) (fun i -> Float.max lo.(i) (Float.min hi.(i) v.(i)))
