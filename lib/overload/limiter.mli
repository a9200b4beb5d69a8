(** Deterministic token-bucket rate limiter.

    The bucket refills continuously at [rate] tokens per simulated
    second and holds at most [burst] tokens.  Time never comes from a
    wall clock: callers pass the current {e simulated} event time to
    {!try_take}, so admission decisions replay identically from a
    seed.  Timestamps must be offered monotonically (the engine's
    event loop guarantees this); a stale timestamp is clamped rather
    than refunding tokens. *)

type t

val create : rate:float -> burst:float -> t
(** [create ~rate ~burst] starts with a full bucket of [burst] tokens.
    @raise Invalid_argument unless [rate > 0] and [burst >= 1]. *)

val try_take : t -> now:float -> bool
(** [try_take t ~now] refills the bucket up to [now], then takes one
    token if at least one is available.  [false] means the caller is
    over rate and should shed. *)

val tokens : t -> float
(** Tokens currently available (after the last refill). *)

val rate : t -> float

val burst : t -> float

val snapshot : t -> float * float
(** [(tokens, last_refill_time)] — the complete mutable state, for
    checkpointing.  Configuration ([rate]/[burst]) is rebuilt from the
    run's flags on restore. *)

val restore : t -> float * float -> unit
(** Overwrite the bucket state with a {!snapshot}. *)
