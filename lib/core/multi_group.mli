(** Concurrent routing of multiple independent entanglement groups.

    The paper's second named extension (§II-D, §VII): several disjoint
    user sets request entanglement simultaneously and must share the
    switches' qubits.  Each group still needs its own entanglement tree
    (Definition 1), and a switch's qubits are consumed by whichever
    groups' channels cross it.

    Two allocation strategies are provided:

    - [Sequential]: solve groups one after another (in the given order),
      each seeing the residual capacity its predecessors left — simple,
      but early groups can starve later ones.
    - [Round_robin]: grow all groups' trees concurrently, one channel
      per group per round (each round attaches the best available
      channel for that group under the shared residual capacity) —
      trades peak rates for fairness. *)

type strategy = Sequential | Round_robin

type group_result = {
  group : int list;  (** The user set, as given. *)
  tree : Ent_tree.t option;  (** [None] when the group could not be
                                 spanned under the shared capacity. *)
  rate : float;  (** Eq. (2); [0.] when unspanned. *)
}

type t = {
  strategy : strategy;
  groups : group_result list;  (** In the order given. *)
  all_feasible : bool;
  aggregate_neg_log : float;
      (** Σ of −ln rates over feasible groups — the joint "all groups
          entangle simultaneously" log-rate restricted to served
          groups. *)
  min_rate : float;  (** Worst served group's rate ([0.] if any group is
                         unserved) — the fairness metric. *)
}

val solve :
  ?strategy:strategy ->
  Qnet_graph.Graph.t ->
  Params.t ->
  groups:int list list ->
  t
(** Route every group's entanglement tree under shared switch
    capacities (default strategy [Sequential]).  Groups must be
    non-empty, pairwise-disjoint sets of user vertices; a group's
    vertices need not be all of the graph's users.
    @raise Invalid_argument on empty/overlapping groups or non-user
    members. *)

val best_attachment :
  ?exclude:Routing.exclusion ->
  ?budget:Qnet_overload.Budget.t ->
  ?oracle:Routing.channel_oracle ->
  Qnet_graph.Graph.t ->
  Params.t ->
  capacity:Capacity.t ->
  inside:(int, unit) Hashtbl.t ->
  outside_users:int list ->
  Channel.t option
(** One grow round of Algorithm 4: the maximum-rate capacity-feasible
    channel from any user of the grown set [inside] to any user of
    [outside_users] (by {!Qnet_util.Logprob.compare_desc}; ties keep
    the first candidate seen), or [None] if there is none.  Nothing is
    consumed from [capacity].  Without an [oracle] this is one
    multi-source search ({!Routing.best_channels_between}); with one it
    is a point query per inside/outside pair.  [exclude] and [budget]
    are as in {!prim_for_users}.  Ticks [core.alg4.grow_rounds].
    @raise Qnet_overload.Budget.Exhausted when the fuel runs out. *)

val prim_for_users :
  ?exclude:Routing.exclusion ->
  ?budget:Qnet_overload.Budget.t ->
  ?oracle:Routing.channel_oracle ->
  Qnet_graph.Graph.t ->
  Params.t ->
  capacity:Capacity.t ->
  users:int list ->
  Ent_tree.t option
(** Algorithm 4 generalised to an arbitrary user subset and an external
    residual-capacity state (consumed on success, partially consumed on
    failure paths are rolled back).  [exclude] (default
    {!Routing.no_exclusion}) keeps the grown tree clear of failed
    switches and fibers.  [budget] meters the underlying Dijkstra runs;
    on {!Qnet_overload.Budget.Exhausted} any channels already consumed
    from [capacity] are released before the exception propagates, so a
    fuel-starved call leaves shared capacity exactly as it found it.
    Each grow round is one {!best_attachment}.  [oracle] replaces the flat multi-source
    search with point queries (see {!Routing.channel_oracle}) — how the
    hierarchical router drops in under Algorithm 4 without this module
    knowing about regions.  Exposed for reuse and testing. *)
