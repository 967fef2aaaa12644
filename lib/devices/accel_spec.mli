(** The LiquidIO-II CN2360 accelerator catalog (§4.2, Figure 8).

    Peak operation rates are reverse-engineered from the paper's own
    plots: Fig 5 reports that at 16 KB access granularity CRC, 3DES,
    MD5 and HFA reach 13.6 %, 17.3 %, 21.2 % and 25.8 % of their
    maxima. With the stated medium bandwidths (CMI 50 Gbps for on-chip
    crypto units, I/O interconnect 40 Gbps for off-chip engines) the
    16 KB ceiling is BW/16384 ops/s, which pins the peaks at ≈ 2.8, 2.2,
    1.8 and 1.18 MOPS. Fig 9's saturation knees (9/8/11 cores for
    MD5/KASUMI/HFA) pin the per-NIC-core issue rates, which differ per
    engine because each has a different computation-transfer overhead
    O_IP1. *)

type medium =
  | Cmi  (** coherent memory interconnect — modeled as the memory medium *)
  | Io_interconnect  (** off-chip I/O fabric — modeled as the interface *)

type t = {
  name : string;
  peak_ops : float;  (** accelerator operations per second *)
  medium : medium;
  core_issue_ops : float;
      (** operation issue rate of one dedicated NIC core driving this
          engine (includes the per-call overhead O_IP1); in the §4.2
          setup each core splits between submission and completion, so
          a cluster of n cores sustains n·core_issue_ops/2 calls/s *)
  issue_overhead : float;
      (** O_IP1 — seconds of core-side preparation per call *)
}

val crc : t
val des3 : t
val md5 : t
val aes : t
val sha1 : t
val sms4 : t
val kasumi : t
val hfa : t
