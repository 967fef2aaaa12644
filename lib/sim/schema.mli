(** The central table of [(schema, version)] stamps for every JSON
    document the repo emits. {!Telemetry.Json.versioned} — the shared
    header every exporter goes through — looks its [kind] up here, so
    an unregistered stamp cannot be emitted, and a consumer can check
    any document against one authoritative list. *)

val table : (string * int) list
(** Every known document kind with its current version. *)

val version_of_exn : string -> int
(** Raises [Invalid_argument] on a kind missing from {!table}. *)
