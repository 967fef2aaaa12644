let default = Atomic.make (max 1 (Domain.recommended_domain_count ()))
let set_default_jobs n = Atomic.set default (max 1 n)

(* The shared pool: a queue of runner thunks under a mutex, drained by
   worker domains spawned lazily up to the largest parallelism ever
   requested (the OCaml runtime tops out at 128 domains; stay well
   under). Workers never exit — they die with the process. *)

let hard_cap = 120

type pool = {
  mutex : Mutex.t;
  work : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable spawned : int;
}

let pool =
  {
    mutex = Mutex.create ();
    work = Condition.create ();
    queue = Queue.create ();
    spawned = 0;
  }

let rec worker () =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.queue do
    Condition.wait pool.work pool.mutex
  done;
  let thunk = Queue.pop pool.queue in
  Mutex.unlock pool.mutex;
  thunk ();
  worker ()

let submit ~workers_wanted thunks =
  Mutex.lock pool.mutex;
  List.iter (fun t -> Queue.push t pool.queue) thunks;
  let target = min workers_wanted hard_cap in
  while pool.spawned < target do
    pool.spawned <- pool.spawned + 1;
    ignore (Domain.spawn worker : unit Domain.t)
  done;
  Condition.broadcast pool.work;
  Mutex.unlock pool.mutex

let try_pop () =
  Mutex.lock pool.mutex;
  let t = if Queue.is_empty pool.queue then None else Some (Queue.pop pool.queue) in
  Mutex.unlock pool.mutex;
  t

let map ?jobs f xs =
  let jobs = match jobs with Some j -> max 1 j | None -> Atomic.get default in
  match xs with
  | ([] | [ _ ]) as xs -> List.map f xs
  | xs when jobs <= 1 -> List.map f xs
  | xs ->
    let input = Array.of_list xs in
    let n = Array.length input in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let remaining = Atomic.make n in
    let finished = Mutex.create () in
    let all_done = Condition.create () in
    let run_one i =
      let r =
        try Ok (f input.(i))
        with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      results.(i) <- Some r;
      (* The release write on [remaining] publishes [results.(i)] to
         whoever observes the decrement. *)
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        Mutex.lock finished;
        Condition.broadcast all_done;
        Mutex.unlock finished
      end
    in
    let rec runner () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        run_one i;
        runner ()
      end
    in
    let runners = min (jobs - 1) (n - 1) in
    submit ~workers_wanted:runners (List.init runners (fun _ -> runner));
    (* The caller is the [jobs]-th runner. Once this batch's index is
       exhausted it helps with other queued work (nested batches),
       then sleeps until the last in-flight task completes. *)
    runner ();
    let rec wait () =
      if Atomic.get remaining > 0 then
        match try_pop () with
        | Some thunk ->
          thunk ();
          wait ()
        | None ->
          Mutex.lock finished;
          while Atomic.get remaining > 0 do
            Condition.wait all_done finished
          done;
          Mutex.unlock finished
    in
    wait ();
    (* Propagate the failure of the smallest input index, so the raised
       exception does not depend on scheduling. *)
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | Some (Ok _) -> ()
        | None -> assert false)
      results;
    Array.to_list
      (Array.map
         (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
         results)
