type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;  (* toward most-recent *)
  mutable next : ('k, 'v) node option;  (* toward least-recent *)
}

type ('k, 'v) t = {
  cap : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable newest : ('k, 'v) node option;
  mutable oldest : ('k, 'v) node option;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  {
    cap = capacity;
    table = Hashtbl.create (min capacity 64);
    newest = None;
    oldest = None;
  }

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.newest <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.oldest <- n.prev);
  n.prev <- None;
  n.next <- None

let push_newest t n =
  n.next <- t.newest;
  (match t.newest with Some f -> f.prev <- Some n | None -> t.oldest <- Some n);
  t.newest <- Some n

let find_opt t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some n ->
    unlink t n;
    push_newest t n;
    Some n.value

let add t k v =
  match Hashtbl.find_opt t.table k with
  | Some n ->
    n.value <- v;
    unlink t n;
    push_newest t n
  | None ->
    let n = { key = k; value = v; prev = None; next = None } in
    Hashtbl.replace t.table k n;
    push_newest t n;
    if Hashtbl.length t.table > t.cap then (
      match t.oldest with
      | Some victim ->
        unlink t victim;
        Hashtbl.remove t.table victim.key
      | None -> assert false)
