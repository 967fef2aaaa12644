(* Writes the golden fixtures for every row of [Lognic_check.Golden.table]
   into the directory given as argv(1).  Run once against a known-good
   engine and commit the output; the test suite then asserts
   byte-equality on every run.  Rows that re-check another row's
   fixture write nothing. *)
let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  List.iter
    (fun (name, fixture, ext, render) ->
      if name = fixture then begin
        let path = Filename.concat dir (fixture ^ ext) in
        let oc = open_out_bin path in
        output_string oc (String.trim (render ()));
        output_char oc '\n';
        close_out oc;
        Printf.printf "wrote %s\n%!" path
      end)
    (Lognic_check.Golden.table ())
