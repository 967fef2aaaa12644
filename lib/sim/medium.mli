(** A bandwidth-arbitrated shared transfer resource — the SoC interface,
    the memory subsystem, or a dedicated IP-IP link.

    Transfers serialize FIFO at the medium's bandwidth: a request issued
    at [t] begins at [max t next_free] and occupies the medium for
    [bytes / bandwidth]. Zero-byte transfers complete immediately
    without touching the medium.

    The medium holds a bounded backlog ({!buffer} bytes, matching the
    multi-megabyte rate-matching buffers §3.2 assumes); a transfer that
    would overflow it is rejected, which is how the simulated NIC sheds
    load when a shared interconnect is the bottleneck. *)

type t

val create : Engine.t -> label:string -> bandwidth:float -> unit -> t
(** Raises [Invalid_argument] on a non-positive bandwidth. *)

val label : t -> string

val buffer : float
(** Every medium's backlog limit: 2 MiB. Together with {!backlog} this
    states the admission invariant a healthy medium maintains:
    admitted-but-untransferred bytes never exceed the buffer
    ({!Invariants}). *)

val set_scale : t -> float -> unit
(** Degrade (or restore) the medium: subsequent transfers run at
    [factor · bandwidth] and the backlog limit converts at the degraded
    rate. In-flight transfers keep their admission-time schedule, like a
    link renegotiating speed between frames. Raises [Invalid_argument]
    unless [factor] is in (0, 1]. With [factor = 1] the medium is
    byte-identical to one that was never degraded. *)

val transfer : ?hop:Hop.t -> t -> bytes:float -> (unit -> unit) -> bool
(** [transfer medium ~bytes k] schedules [k] at the completion time and
    returns [true], or returns [false] (counting a rejection) when the
    pending backlog exceeds the buffer. [hop], the packet's ledger, is
    told of an admitted transfer's backlog wait and transmission time
    (both zero for zero-byte transfers) through {!Hop.transferred},
    under the medium's label; pass a pre-built [Some] to stay
    allocation-free. Raises [Invalid_argument] on negative [bytes]. *)

val backlog : t -> float
(** Bytes admitted but not yet transferred, at the engine's current
    virtual time. *)

val busy_within : t -> until:float -> float
(** Seconds spent transferring, clipped to [\[0, until\]]. Exact
    whenever [until] is at or after the last admission time (in
    particular at the run horizon). *)

val utilization : t -> until:float -> float
(** [busy_within ~until / until]; never exceeds 1 at the horizon, even
    when admitted work extends past it. *)

val rejections : t -> int

val transfers : t -> int
(** Nonzero-byte transfers admitted so far (zero-byte transfers bypass
    the medium and are not counted). *)

val set_profile : t -> Profile.t option -> unit
(** Attach (or detach) a self-profiler: nonzero-byte admission is
    charged to {!Profile.phase_media}. [None] (the default) costs one
    pointer compare per transfer and never affects scheduling. *)
