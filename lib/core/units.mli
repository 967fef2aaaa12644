(** Unit conventions and conversions.

    Internally the model works in SI base units:
    - data sizes in {b bytes},
    - time in {b seconds},
    - data rates in {b bytes per second},
    - operation rates in {b operations per second}.

    These helpers convert to and from the units the paper plots in
    (Gbps, MB/s, MOPS, µs, ...). A value like [25. *. gbps] reads as
    "25 gigabits per second expressed in bytes/s". *)

val kib : float
(** 1 KiB = 1024 bytes (binary, matching I/O block sizes: "4KB" I/Os). *)

val gbps : float
(** 1 Gbit/s in bytes/s (= 1.25e8). *)

val mops : float
(** 1 million operations per second. *)

val usec : float
(** 1 µs in seconds. *)

val to_gbps : float -> float
(** bytes/s -> Gbit/s. *)

val to_mbytes_per_s : float -> float
val to_mops : float -> float
val to_usec : float -> float

val mtu : float
(** Standard Ethernet MTU payload size used throughout the paper's
    figures: 1500 bytes. *)
