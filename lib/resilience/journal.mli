(** Write-ahead event journal for the online engine.

    An append-only, fsync-batched record of every committed engine
    transition ({!Qnet_online.Engine.transition}) since the last
    checkpoint cut.  Restore replays the engine from that cut and
    {e verifies} the run re-emits exactly the recorded stream — the
    journal attests that the recovered state equals the state that
    crashed, it is never an alternative source of truth (the engine is
    deterministic; the replay is).

    File layout ([muerp-journal/1]): three header text lines (version,
    config fingerprint, the footer digest and ordinal of the checkpoint
    cut the journal extends), then binary records framed as
    [varint length][payload][4-byte truncated MD5].  The per-record
    checksum pins the torn-tail case to an exact record boundary: a
    crash mid-append loses only the in-flight record, and {!read}
    reports the tail as torn (a warning) rather than corrupt (an
    error). *)

val version : string
(** The file-format tag, [muerp-journal/1]. *)

val fsync_every : int
(** Records per fsync batch.  Bounds replay-unverifiable loss after a
    power cut without paying a disk round-trip per admission. *)

(** {1 Writing} *)

type writer

val create :
  path:string ->
  config:string ->
  head:string ->
  index:int ->
  (writer, string) result
(** Start a journal at [path] (truncating any previous one), chained to
    the checkpoint cut whose footer digest is [head]; [index] is the
    ordinal of that cut among the cuts its writer made (informational —
    recovery matches on [head]).  The header is fsynced before
    returning. *)

val append : writer -> Qnet_online.Engine.transition -> unit
(** Append one committed transition; fsyncs every {!fsync_every}
    records.  @raise Invalid_argument after {!close}. *)

val close : writer -> int
(** Flush, fsync and close; returns the number of records written.
    Idempotent. *)

(** {1 Reading} *)

type contents = {
  j_config : string;
  j_head : string;  (** Footer digest of the cut this extends. *)
  j_index : int;  (** Ordinal of that cut. *)
  j_records : Qnet_online.Engine.transition list;  (** Commit order. *)
  j_torn : string option;
      (** Warning when the tail was cut mid-record; the records before
          it are intact and usable. *)
}

val read : path:string -> (contents, string) result
(** Read and frame-check a journal.  [Error] for unreadable, empty,
    version-mismatched or header-corrupt files; a torn {e tail} is not
    an error (see {!type:contents}). *)

(** {1 Replay verification} *)

type verifier

val verifier : Qnet_online.Engine.transition list -> verifier
(** A checker expecting exactly [records] in order; feed it to the
    engine as [?on_transition:(observe v)]. *)

val observe : verifier -> Qnet_online.Engine.transition -> unit
(** Compare the next committed transition against the journal.  A run
    that outlives the journal is fine (the tail was torn or lost
    between fsyncs); a {e divergence} is recorded and reported by
    {!finish}. *)

val finish : verifier -> (int, string) result
(** [Ok matched] when the full journal was re-emitted in order; [Error]
    describing the first divergence or the unconsumed remainder. *)

val describe : Qnet_online.Engine.transition -> string
(** One-line human rendering, used in verifier diagnostics. *)
