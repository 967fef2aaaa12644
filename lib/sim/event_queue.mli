(** A binary min-heap of timestamped events, stored struct-of-arrays
    (unboxed float times, int sequence numbers and payload slots in heap
    order, payloads apart in a slot pool).

    Ties in time are broken by insertion order: the next event is the
    exact lexicographic [(time, seq)] minimum (pinned by the
    differential property in lib/check), so simulations are fully
    deterministic given a seed.

    Steady-state operations allocate nothing: storage only grows, by
    doubling, and the [locate]/[located_time]/[take] triple exposes the
    earliest event without materializing a [(float * 'a) option].
    Removing the root is deferred to the next operation, so an event
    that schedules a successor costs one sift, not two. *)

type 'a t

val create : unit -> 'a t
(** An empty queue; storage is allocated on the first push. *)

val size : 'a t -> int

val resizes : 'a t -> int
(** Storage doublings since [create] ({!clear} keeps the storage, so a
    reused queue stops doubling once its arrays fit its population). *)

val push : 'a t -> time:float -> 'a -> unit
(** Raises [Invalid_argument] on a NaN time. *)

val locate : 'a t -> horizon:float -> bool
(** [locate t ~horizon] finds (without removing) the earliest event;
    [true] iff the queue is non-empty and that event's time is
    [<= horizon]. Read its time with {!located_time}, remove it with
    {!take}. *)

val located_time : 'a t -> float
(** Time of the event found by the last successful {!locate}. Only
    meaningful immediately after [locate] returned [true]. *)

val take : 'a t -> 'a
(** Removes and returns the event found by the last successful
    {!locate}. Raises [Invalid_argument] unless the previous queue
    operation was a [locate] that returned [true]: a failed [locate], a
    [push], a [take] or a [clear] since then invalidates it. The
    queue's reference to the taken payload is dropped, so a finished
    event's closure can be collected. *)

val clear : 'a t -> unit
(** Empty the queue, keeping its storage for reuse, so a reused engine
    stops reallocating queue storage per run. Events pushed after a
    [clear] pop exactly as they would from a fresh queue. *)
