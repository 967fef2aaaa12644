(** A bounded least-recently-used cache (hashtable + intrusive doubly
    linked recency list), used to memoize expensive pure evaluations —
    e.g. the optimizer's model reports keyed by canonicalized knob
    assignments. Not thread-safe: guard with a mutex when shared
    across domains. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Marks the entry most-recently used on a hit. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Inserts (or refreshes) a binding, evicting the least-recently-used
    entry when over capacity. *)
