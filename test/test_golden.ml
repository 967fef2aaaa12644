(* Byte-identity against committed golden fixtures.

   The files in test/golden/*.json are written by test/golden/gen.exe.
   Each test below re-runs the pinned scenario on the current engine
   and asserts the measurement JSON is byte-for-byte identical, so the
   fixtures hold the exact (time, seq) pop order across rewrites of the
   event queue — event order, rng stream layout and float operation
   order all have to match exactly for this to hold. *)

open Helpers

let read_fixture file =
  let ic = open_in_bin (Filename.concat "golden" file) in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  String.trim s

let first_diff a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

(* One case per row of [Golden.table]: the measurement scenarios, the
   contention, tenant and flow-cache reports, the metrics NDJSON stream,
   and the all-layers re-check of md5-faults. *)
let suite =
  List.map
    (fun (name, fixture, ext, render) ->
      quick name (fun () ->
          let expected = read_fixture (fixture ^ ext) in
          let actual = String.trim (render ()) in
          if not (String.equal expected actual) then begin
            let i = first_diff expected actual in
            let ctx s =
              let lo = max 0 (i - 40) in
              String.sub s lo (min 80 (String.length s - lo))
            in
            Alcotest.failf
              "%s: output diverges from golden fixture %s%s at byte %d\n\
               expected ...%s...\n\
               actual   ...%s..."
              name fixture ext i (ctx expected) (ctx actual)
          end))
    (Lognic_check.Golden.table ())
