(** Residual qubit bookkeeping for quantum switches.

    Every channel through a switch pins 2 of its qubits (one per
    adjacent quantum link at the swap point), so a switch with [Q]
    qubits supports [⌊Q/2⌋] channels (Definition 3).  User vertices are
    unconstrained by assumption and always report unlimited capacity. *)

type t

val of_graph : Qnet_graph.Graph.t -> t
(** Fresh residual state: every switch starts with its full qubit
    budget. *)

val copy : t -> t
(** Independent snapshot — algorithms fork state when exploring. *)

val remaining : t -> int -> int
(** [remaining t v] is the residual qubits of switch [v]; [max_int] for
    users. *)

val can_relay : t -> int -> bool
(** Whether vertex [v] can carry one more channel through it: users
    always can, switches need [remaining >= 2]. *)

val consume_channel : t -> int list -> unit
(** [consume_channel t path] deducts 2 qubits from every {e interior}
    switch of the channel's vertex path (endpoints are users and cost
    nothing).  @raise Invalid_argument if some interior switch lacks the
    qubits — callers must check admissibility first. *)

val release_channel : t -> int list -> unit
(** Inverse of {!consume_channel}: refunds 2 qubits to every interior
    switch (used when a previously accepted channel is evicted, as in
    Algorithm 3's conflict resolution). *)

val used : t -> int -> int
(** Qubits currently consumed at vertex [v] ([0] for users), measured
    against the live {!quota} (not the immutable graph, which a
    {!provision} call may have superseded). *)

val quota : t -> int -> int
(** The provisioned qubit budget of vertex [v] — initially the graph's
    static qubit count, moved by {!provision}. *)

val provision : t -> int -> int -> unit
(** [provision t v q] re-provisions switch [v] to a budget of [q]
    qubits, shifting the residual by the same delta so current
    consumption is preserved.  Shrinking below current usage leaves the
    residual {e negative}; the caller must recover leases through [v]
    until it is non-negative again.
    @raise Invalid_argument on a user vertex or a negative budget. *)

val overcommitted : t -> int list
(** Switch ids whose residual went negative — always empty unless
    internal invariants were violated; exposed for the test suite. *)
