(** Pluggable per-request routing policies for the traffic engine.

    A policy answers one question: given the live residual capacity,
    find an entanglement tree for this user group — and, on success,
    consume the tree's switch qubits from that capacity (the engine
    releases them when the lease expires, via
    {!Qnet_sim.Scheduler.Lease}).  The contract makes oversubscription
    impossible by construction: a policy may only return a tree whose
    qubits it successfully consumed.

    Two families are provided:

    - {!prim}: the native per-request kernel,
      {!Qnet_core.Multi_group.prim_for_users} (Algorithm 4 generalised
      to a user subset under external capacity);
    - adapters ({!of_algorithm}, {!eqcast}) that run any whole-network
      solver on a {e residual view} of the network — a copy where the
      request's users are the only user vertices and every switch's
      budget is its current residual — then re-validate and consume the
      resulting tree against the true capacity state.

    Every request is routed on the live residual state: no policy
    replays a tree computed under an earlier one. *)

(** Hooks a stateful policy exposes so the engine can carry its hidden
    state across a snapshot/restore cycle: [save] captures the state as
    a pure sexp document (stored in the engine snapshot's policy-state
    section), [load] rebuilds it against the restoring run's graph and
    params.  The hierarchical policy's segment cache travels this
    way. *)
type state_hooks = {
  save : unit -> Qnet_util.Sexp.t;
  load :
    Qnet_graph.Graph.t ->
    Qnet_core.Params.t ->
    Qnet_util.Sexp.t ->
    (unit, string) result;
}

type t = {
  name : string;
  state : state_hooks option;
      (** Present exactly when the policy keeps restorable hidden
          state; the engine calls [save] at each checkpoint cut and
          [load] on restore, and refuses a snapshot whose policy-state
          section disagrees with the configured policy. *)
  route :
    exclude:Qnet_core.Routing.exclusion ->
    budget:Qnet_overload.Budget.t option ->
    Qnet_graph.Graph.t ->
    Qnet_core.Params.t ->
    capacity:Qnet_core.Capacity.t ->
    users:int list ->
    Qnet_core.Ent_tree.t option;
      (** [None] = no feasible tree right now (capacity state
          untouched).  [Some tree] ⇒ the tree's qubits have been
          consumed from [capacity], and no channel of the tree crosses
          an element ruled out by [exclude] (the fault-awareness
          contract: a policy may never put a dead switch or fiber back
          in service).  [budget], when given, meters the underlying
          Dijkstra expansions; a policy must propagate
          {!Qnet_overload.Budget.Exhausted} with the capacity state
          rolled back — fuel exhaustion, like [None], never leaks
          consumption. *)
}

val route :
  t ->
  ?exclude:Qnet_core.Routing.exclusion ->
  ?budget:Qnet_overload.Budget.t ->
  Qnet_graph.Graph.t ->
  Qnet_core.Params.t ->
  capacity:Qnet_core.Capacity.t ->
  users:int list ->
  Qnet_core.Ent_tree.t option
(** [route p] is [p.route] with [exclude] defaulting to
    {!Qnet_core.Routing.no_exclusion} and no fuel budget — the
    convenient call form for fault-free, unmetered contexts. *)

val try_consume : Qnet_core.Capacity.t -> Qnet_core.Ent_tree.t -> bool
(** Atomically consume the tree's aggregate switch-qubit demand if every
    switch can afford it; [false] leaves the capacity state unchanged.
    The admission primitive the adapters use. *)

val prim : t
(** ["prim"] — Algorithm 4 on the live residual state; consumes
    directly. *)

val of_algorithm : Qnet_core.Muerp.algorithm -> t
(** Run one of the paper's solvers on the residual view.  Algorithm 2 is
    capacity-oblivious, so its trees can fail the final admission check
    (then the request is simply not served this attempt) — the engine
    still never oversubscribes. *)

val eqcast : t
(** ["eqcast"] — the E-Q-CAST chaining baseline on the residual view. *)

val of_name : string -> t option
(** ["prim"], ["alg2"], ["alg3"], ["eqcast"] or any {!register}ed
    name. *)

val register : string -> (unit -> t) -> unit
(** [register name mk] adds an externally provided policy constructor
    to the selectable roster: {!of_name} instantiates it on demand (a
    fresh instance per call).  This is how subsystems that sit
    above this library — the flow optimizer, hierarchical routing —
    become CLI-selectable without a dependency cycle.  Re-registering a
    name replaces the previous constructor.
    @raise Invalid_argument on an empty or built-in name. *)

(** {2 Tiered graceful degradation}

    Under overload a single expensive policy either answers slowly or
    not at all.  {!tiered} stacks policies from expensive to cheap:
    each tier runs under a fresh fuel budget and behind its own
    {!Qnet_overload.Breaker}; budget exhaustion or a structural
    {!Qnet_core.Verify} failure trips the tier's breaker and falls
    through to the next tier, and the final tier (typically {!prim})
    runs unmetered so the stack degrades to cheap routing before it
    ever rejects. *)

type tier_stats = {
  names : string array;  (** Tier policy names, outermost first. *)
  serves : int array;  (** Requests served by each tier. *)
  exhaustions : int array;  (** Budget exhaustions per tier. *)
  verify_rejects : int array;
      (** Trees discarded by the structural verification gate. *)
  breaker_skips : int array;
      (** Attempts skipped because the tier's breaker was open. *)
  breakers : Qnet_overload.Breaker.t array;
  mutable last : int;
      (** Index of the tier that produced the most recent successful
          route, [-1] if the last call served nothing.  The engine
          samples this immediately after each [route] call to label the
          request with its serving tier. *)
}

val tiered :
  ?fuel:int ->
  ?breaker_threshold:int ->
  ?breaker_cooldown:int ->
  t list ->
  t * tier_stats
(** [tiered policies] composes the given tiers (ordered expensive to
    cheap) into one policy plus its live stats.  Every tier except the
    last gets a fresh [fuel]-unit budget per attempt (default 4096);
    the last tier runs unmetered.  [breaker_threshold] /
    [breaker_cooldown] forward to {!Qnet_overload.Breaker.create}.  A
    tier returning [None] (honest infeasibility) falls through without
    penalising its breaker.  Counters:
    [online.overload.{budget_exhausted,verify_rejected,breaker_skips,breaker_opens}].
    The ladder keeps no {!state_hooks} of its own, so every tier must
    be stateless ([state = None]): a tier's hidden state would not
    reach the snapshot, and a restored run would diverge.
    @raise Invalid_argument on an empty tier list, non-positive fuel or
    a tier with [state <> None]. *)
