(* [json_valid FILE...] parses each file with [Telemetry.Json.of_string]
   and prints one line per file; exits 1 if any file is not JSON. *)
let () =
  let ok = ref true in
  Array.iteri
    (fun i file ->
      if i > 0 then
        match
          Lognic_sim.Telemetry.Json.of_string
            (In_channel.with_open_bin file In_channel.input_all)
        with
        | Ok _ -> Printf.printf "%s: valid JSON\n" file
        | Error e ->
          Printf.printf "%s: %s\n" file e;
          ok := false)
    Sys.argv;
  exit (if !ok then 0 else 1)
