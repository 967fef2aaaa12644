(** Parsing and printing of dimensioned quantities in the graph DSL.

    Accepted suffixes (case-insensitive where unambiguous):
    - data rates: [bps], [Kbps], [Mbps], [Gbps], [B/s], [KB/s], [MB/s],
      [GB/s] — all normalized to bytes/s;
    - sizes: [B], [KB] (1000), [KiB] (1024), [MB], [MiB] — bytes;
    - times: [ns], [us], [ms], [s] — seconds;
    - rates: [ops], [Kops], [Mops] — operations/s;
    - bare numbers pass through unchanged (SI base units).

    A value that is not finite — [nan], [inf], or one that overflows
    like [1e400] — is an error. *)

val parse : string -> (float, string) result
(** [parse "25Gbps"] = [Ok 3.125e9]. *)

val print_rate : float -> string
(** Human-friendly rendering of a bytes/s value, e.g. ["25Gbps"]. *)
