(* The single registry of every JSON document schema the repo emits.

   Each exporter stamps its top-level object through
   {!Telemetry.Json.versioned}, which consults this table — so "which
   schemas exist, at which version" is answerable from one place, and
   an exporter cannot invent an unregistered stamp (the lookup raises).
   Adding a document kind means adding a row here first, and a document
   that changes shape bumps its own row's version. *)

let table =
  [
    ("measurement", 2);  (* Netsim.measurement_to_json; 2: no "series" *)
    ("explain", 1);  (* Explain.to_json *)
    ("search_log", 1);  (* Search_log.to_json *)
    ("trace_events", 1);  (* Trace.to_chrome_json (rides in otherData) *)
    ("contention", 1);  (* Contention.to_json *)
    ("faults", 1);  (* Resilience.to_json *)
    ("check", 1);  (* lognic check --json *)
    ("metrics", 1);  (* Metrics snapshot NDJSON lines *)
    ("alerts", 1);  (* Metrics.alerts_to_json *)
    ("profile", 1);  (* Metrics.profile_to_json *)
    ("tenants", 1);  (* Explain.tenants_to_json (lognic tenants --json) *)
    ("flowcache", 1);  (* Explain.flowcache_to_json (lognic flowcache --json) *)
  ]

let version_of_exn kind =
  match List.assoc_opt kind table with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf
         "Schema.version_of_exn: unregistered document kind %S (add it to \
          Lognic_sim.Schema.table)"
         kind)
