(** Long-horizon crash-recovery drill.

    {!crash_restore} runs a workload to completion while cutting
    checkpoints every [every] time units through a real
    {!Checkpoint.writer} (cut, [FILE.prev] and write-ahead {!Journal}
    in a temporary directory it creates and removes).  It captures the
    byte-exact file set just before every cut (when the journal holds
    the transitions since the previous one), just after it, and once at
    run end, then crashes into every capture: the
    files are written back, recovered with {!Checkpoint.recover}, and
    the run is finished from the recovered cut under the journal
    {!Journal.verifier}.  The continuation's report table must be
    byte-identical to the uninterrupted run's, its outcome list
    structurally equal, and the journal fully re-emitted.

    With an {!injection} the newest cut of every capture is damaged
    first; determinism still demands a byte-identical completion (from
    [FILE.prev]) or a friendly [Error] when no cut survives — an
    exception anywhere fails the drill. *)

type injection =
  | Torn_write of int
      (** Truncate the newest cut by N bytes — the mid-write crash. *)
  | Bit_flip of int
      (** Flip bit N (modulo its size) of the newest cut — silent media
          corruption. *)

type t = {
  checkpoints : int;  (** Cuts made by the uninterrupted run. *)
  captures : int;  (** Crash points exercised. *)
  mismatches : (int * string) list;
      (** [(crash point or cut, reason)] for every failure; empty means
          the drill passed. *)
  degraded : int;
      (** Injected crash points that recovered from [FILE.prev] or
          failed friendly — expected under injection. *)
}

val passed : t -> bool

val crash_restore :
  ?config:Qnet_online.Engine.config ->
  ?faults:Qnet_faults.Model.t ->
  ?fault_schedule:Qnet_faults.Schedule.event list ->
  ?reconfig:Qnet_online.Reconfig.event list ->
  ?inject:injection ->
  every:float ->
  Qnet_graph.Graph.t ->
  Qnet_core.Params.t ->
  requests:Qnet_online.Workload.request list ->
  t
(** The optional arguments mirror {!Qnet_online.Engine.run} and are
    passed to both the uninterrupted run and every restored
    continuation, so the drill exercises exactly the configuration the
    caller will run in production — including faults, live
    reconfiguration and overload control. *)

val pp : Format.formatter -> t -> unit
(** One-line pass summary, or the list of diverging crash points. *)
