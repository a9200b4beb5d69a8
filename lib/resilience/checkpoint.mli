(** Durable checkpoint cuts for the online traffic engine — the one
    module that knows the on-disk snapshot format.

    A cut file ([muerp-checkpoint/2]) is a version header line, a
    config line carrying the caller's fingerprint, the binary snapshot
    body ({!Qnet_telemetry.Wire} varints, raw float bits, counted
    lists) and an integrity footer (MD5 + byte length) over everything
    before it.  The footer catches torn copies, truncation and bit rot
    before any decoding, and the decoder itself is total, so every
    failure surfaces as a human-readable error naming the file — never
    a backtrace.

    {!save} is durable and atomic: it fsyncs the tmp file, renames the
    previous cut to [FILE.prev], renames the tmp file to [FILE] and
    fsyncs the directory.  {!recover} tries [FILE], then [FILE.prev].
    The footer digest is the cut's identity: the write-ahead {!Journal}
    quotes it to name the cut it extends. *)

val version : string
(** The file-format tag, [muerp-checkpoint/2]. *)

val prev_path : string -> string
(** [FILE.prev], where {!save} keeps the cut before the newest. *)

(** {1 Snapshot codec} *)

val encode : Qnet_online.Engine.snapshot -> string
(** The binary snapshot body. *)

val decode : string -> (Qnet_online.Engine.snapshot, string) result
(** Inverse of {!encode}, structurally exact (float bits included).
    Total: truncated input, unknown tags and trailing bytes give
    [Error], never an exception. *)

(** {1 Files} *)

val save :
  path:string ->
  config:string ->
  Qnet_online.Engine.snapshot ->
  (string, string) result
(** Write a cut to [path] durably, keeping the previous one as
    [path.prev]; [Ok digest] is the integrity-footer MD5 (the cut's
    identity).  [config] is an opaque fingerprint of the run-shaping
    flags (seed, policy, workload…); {!load} refuses a file whose
    fingerprint differs, because a restore only reproduces the
    uninterrupted run under identical inputs. *)

val load :
  path:string -> config:string -> (Qnet_online.Engine.snapshot, string) result
(** Read, verify and decode one cut.  Errors (all naming [path]):
    unreadable file, empty/truncated/torn contents, checksum mismatch,
    unsupported format version, config fingerprint mismatch, malformed
    snapshot body. *)

val read :
  path:string -> (string * Qnet_online.Engine.snapshot, string) result
(** {!load} without the fingerprint check: the config string written
    into the file and the snapshot (what [muerp inspect] shows). *)

(** {1 Cutting with a journal} *)

type writer

val writer : path:string -> config:string -> ?journal:string -> unit -> writer
(** Cuts to [path]; with [journal], a {!Journal} at that path is
    restarted after every cut, chained to the cut just written. *)

val cut : writer -> Qnet_online.Engine.snapshot -> (string, string) result
(** {!save} one cut, then restart the journal; [Ok digest]. *)

val on_transition : writer -> Qnet_online.Engine.transition -> unit
(** Feed for [Engine.run ?on_transition]: appends to the live journal.
    A no-op without [journal], and before the first cut (there is no
    durable state to extend yet). *)

val close : writer -> unit
(** Flush and close the journal, if any.  Cuts are already durable. *)

(** {1 Recovery} *)

type recovered = {
  r_snapshot : Qnet_online.Engine.snapshot;
  r_path : string;  (** [path], or [path.prev] when [path] failed. *)
  r_warnings : string list;
      (** One per skipped or ignored file — a bad newest cut, a stale or
          torn journal.  Callers print these; they are never fatal. *)
  r_journal : Qnet_online.Engine.transition list;
      (** Journal records extending [r_snapshot], for replay
          verification; empty when absent, stale or unusable. *)
}

val recover :
  path:string ->
  config:string ->
  ?journal:string ->
  unit ->
  (recovered, string) result
(** Load [path], falling back to [path.prev] with a warning.  The
    journal's records are returned only when its head digest names the
    cut that was loaded.  [Error] only when neither cut loads. *)
