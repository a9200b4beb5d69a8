(** Online entanglement-request scheduling over a shared network.

    The paper's §II-B describes a central controller that collects
    entanglement requests and computes routes offline.  This module
    animates that controller over time: requests for multi-user
    entanglement arrive in discrete slots, each accepted request
    reserves its channels' switch qubits for a lease duration, and
    leases expire back into the shared pool.  It turns the static MUERP
    solvers into the admission-control loop a deployed quantum network
    would actually run, and measures what operators care about —
    acceptance ratio and served entanglement rates under load.

    Routing uses the Prim-style subset solver
    ({!Qnet_core.Multi_group.prim_for_users}) against the controller's
    residual capacity. *)

type request = {
  id : int;
  users : int list;  (** User vertices to entangle (≥ 2). *)
  arrival : int;  (** Slot in which the request appears. *)
  duration : int;  (** Lease length in slots once admitted (≥ 1). *)
}

type policy =
  | Drop  (** Reject immediately when unroutable. *)
  | Queue of int
      (** Retry an unroutable request every slot for at most the given
          number of additional slots, then reject. *)

(** A lease over the switch qubits an admitted entanglement tree pins.

    The router ({!Qnet_core.Multi_group.prim_for_users} or any
    {!Qnet_online.Policy}-style router) consumes the qubits when it
    admits the tree; {!Lease.acquire} snapshots what was consumed so the
    reservation can later be torn down exactly once.  Shared with the
    continuous-time traffic engine ([Qnet_online.Engine]). *)
module Lease : sig
  type t

  val acquire : Qnet_core.Ent_tree.t -> t
  (** Record the tree's channel paths and per-switch qubit consumption.
      The capacity state must already reflect the consumption (the
      routing call performed it). *)

  val channels : t -> int list list
  (** The leased channels' vertex paths. *)

  val qubits : t -> int
  (** Total switch qubits the lease pins. *)

  val release : Qnet_core.Capacity.t -> t -> unit
  (** Refund every channel of the lease into the residual state.
      Asserts the capacity invariant: each touched switch must still
      show at least the lease's recorded consumption, so a refund can
      never lift a switch above its qubit budget.  @raise
      Invalid_argument on double release or on an invariant
      violation. *)

  val release_where :
    Qnet_core.Capacity.t ->
    t ->
    dead:(int list -> bool) ->
    t option * int list list
  (** Partial release, for mid-lease infrastructure failure: refund
      only the channels whose path satisfies [dead], retiring this
      lease and returning [(remainder, dead_paths)] — a fresh lease
      over the surviving channels ([None] when every channel died) and
      the refunded paths.  When no channel is dead the lease is
      returned unchanged (still live, nothing refunded).  The refund is
      checked against the same capacity invariant as {!release}.
      @raise Invalid_argument on an already-released lease or an
      invariant violation. *)
end

type disposition =
  | Accepted of { slot : int; tree : Qnet_core.Ent_tree.t; rate : float }
  | Rejected of { slot : int }
      (** [slot] is when the final decision was made. *)

type outcome = { request : request; disposition : disposition }

type stats = {
  arrived : int;
  accepted : int;
  rejected : int;
  acceptance_ratio : float;
  mean_accepted_rate : float;  (** Mean Eq. (2) rate over admitted
                                   requests; [0.] if none. *)
  mean_wait_slots : float;  (** Mean slots between arrival and
                                admission, over admitted requests. *)
  peak_qubits_in_use : int;  (** Max total switch qubits simultaneously
                                 leased. *)
}

val run :
  ?policy:policy ->
  Qnet_graph.Graph.t ->
  Qnet_core.Params.t ->
  requests:request list ->
  stats * outcome list
(** Simulate the controller until every request is decided and every
    lease would have been placed.  Requests are processed in arrival
    order (FIFO within a slot by [id]).  @raise Invalid_argument on
    malformed requests (bad users, duration < 1, negative arrival,
    duplicate ids). *)

val random_requests :
  Qnet_util.Prng.t ->
  Qnet_graph.Graph.t ->
  n:int ->
  mean_gap:float ->
  max_group:int ->
  duration_range:int * int ->
  request list
(** A synthetic workload: [n] requests with geometric inter-arrival
    gaps of the given mean, user groups drawn uniformly (size 2 to
    [max_group], members without replacement from the graph's users)
    and uniform lease durations.  @raise Invalid_argument when
    [max_group] exceeds the user population or parameters are out of
    range. *)
