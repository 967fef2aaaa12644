(** Power models for energy-efficiency comparisons.

    E3 (the system behind case study #3) is an {e energy-efficient}
    Microservice platform: its headline metric is requests per joule,
    SmartNIC cores being ~an order of magnitude cheaper per cycle than
    host cores. These figures let the reproduction report that axis
    too. Numbers follow the E3 paper's device class: a wimpy cnMIPS
    core draws ~1.2 W busy, a Xeon core ~12 W, plus per-device base
    draw. *)

val nic_power : busy_cores:float -> float
(** Total SmartNIC draw with the given mean number of busy cores. *)

val host_power : busy_cores:float -> float

val efficiency : requests_per_s:float -> watts:float -> float
(** Requests per joule. *)
