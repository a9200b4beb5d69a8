(** Deterministic discrete-event queue for the online traffic engine.

    A binary min-heap over event timestamps.  Unlike
    {!Qnet_graph.Binary_heap} (whose equal-key pop order is
    unspecified), ties are broken by insertion order — two events
    scheduled for the same instant fire in the order they were pushed.
    That FIFO guarantee is what makes an engine run a pure function of
    its inputs, which the reproducibility contract of [muerp traffic]
    (same seed ⇒ same SLA summary) depends on. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Fresh empty queue.  [capacity] pre-sizes the backing array. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push q time ev] schedules [ev] at [time].  @raise Invalid_argument
    on a NaN timestamp. *)

val pop : 'a t -> (float * 'a) option
(** Earliest event (FIFO among equal timestamps), removed; [None] when
    empty. *)

val peek_time : 'a t -> float option
(** Timestamp of the next event without removing it. *)

val clear : 'a t -> unit

val entries : 'a t -> (float * int * 'a) list
(** Every pending entry as [(time, seq, payload)] in (time, seq) pop
    order, without disturbing the queue — the canonical dump a
    checkpoint serialises. *)

val next_seq : 'a t -> int
(** The insertion counter the next {!push} will consume.  Serialised
    alongside {!entries} so a restored queue hands out the same seqs. *)

val load : 'a t -> next_seq:int -> (float * int * 'a) list -> unit
(** Replace the queue's contents with a dump, in place: pops the same
    [(time, seq)] sequence and resumes the insertion counter at
    [next_seq], so pushes after restore tie-break identically to the
    uninterrupted run.  @raise Invalid_argument on NaN timestamps, a
    negative [next_seq], or a seq ≥ [next_seq]. *)

val of_entries : next_seq:int -> (float * int * 'a) list -> 'a t
(** Fresh queue holding a dump: {!create} followed by {!load}. *)
