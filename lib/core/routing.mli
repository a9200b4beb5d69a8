(** Algorithm 1 — the maximum-entanglement-rate channel between users.

    Eq. (1) is a product, so it is maximised by a shortest path in the
    negative-log transform (§IV-A): each fiber edge gets the additive
    weight [alpha · L + (−ln q)], one [−ln q] is refunded at the end
    (a channel of [l] links crosses only [l − 1] switches), and Dijkstra
    does the rest.  Relaxation only enters switches holding at least 2
    free qubits, and never relays through user vertices, which
    implements the capacity filtering of Algorithm 1's line 11 and
    Definition 2's "path through vertices in R". *)

val edge_weight : Params.t -> Qnet_graph.Graph.edge -> float
(** The −log-space edge weight [alpha · L_e − ln q].  [infinity] when
    [q = 0.]. *)

(** {2 Fault exclusion}

    Routing normally sees the full graph; under infrastructure failure
    (see [Qnet_faults]) callers pass an {!exclusion} so relaxation never
    enters a failed switch nor crosses a failed fiber.  The hooks are
    plain predicates, so this module stays independent of any particular
    fault model. *)

type exclusion = {
  vertex_ok : int -> bool;  (** May the path enter this vertex? *)
  edge_ok : int -> bool;  (** May the path cross this edge (by id)? *)
}

val no_exclusion : exclusion
(** Permits everything — the default for every [?exclude] below. *)

val path_ok : Qnet_graph.Graph.t -> exclusion -> int list -> bool
(** Whether a vertex path survives the exclusion: every vertex passes
    [vertex_ok] and every consecutive pair is joined by an edge passing
    [edge_ok].  [false] when some pair has no edge at all. *)

val best_channel :
  ?exclude:exclusion ->
  ?budget:Qnet_overload.Budget.t ->
  Qnet_graph.Graph.t ->
  Params.t ->
  capacity:Capacity.t ->
  src:int ->
  dst:int ->
  Channel.t option
(** Maximum-rate channel between users [src] and [dst] given residual
    switch capacities, or [None] when no capacity-feasible channel
    exists.  [?budget] charges underlying Dijkstra heap pops (see
    {!Qnet_graph.Paths.dijkstra}) and propagates
    {!Qnet_overload.Budget.Exhausted}.
    @raise Invalid_argument if either endpoint is not a user or
    [src = dst]. *)

val best_channels_from :
  ?exclude:exclusion ->
  ?budget:Qnet_overload.Budget.t ->
  Qnet_graph.Graph.t ->
  Params.t ->
  capacity:Capacity.t ->
  src:int ->
  (int * Channel.t) list
(** One Dijkstra run from [src] yielding the best channel to {e every}
    other reachable user, as [(user, channel)] pairs in ascending user
    order — the paper's optimisation that drops the all-pairs phase of
    Algorithm 2 from [|U|²] to [|U|] Dijkstra runs. *)

val best_channels_between :
  ?exclude:exclusion ->
  ?budget:Qnet_overload.Budget.t ->
  Qnet_graph.Graph.t ->
  Params.t ->
  capacity:Capacity.t ->
  sources:int list ->
  targets:int list ->
  (int * Channel.t) list
(** Set-to-set channels for a Prim grow step: one multi-source Dijkstra
    in which every user of [sources] starts at distance 0, only
    switches relay, and of the users only [targets] may be entered (as
    endpoints).  The run stops once every target has settled.  The
    result lists, in [targets] order, each reachable target with its
    best channel from the nearest source — so the maximum-rate channel
    between the two sets is among them — and a channel is built for
    targets only.  With [q = 0.] the candidates are the direct fibers,
    source by source as in {!best_channels_from}.  Counts one
    enumeration and at most one SSSP run.
    @raise Invalid_argument if an endpoint is not a user or the two
    sets overlap. *)

type channel_oracle =
  exclude:exclusion ->
  budget:Qnet_overload.Budget.t option ->
  capacity:Capacity.t ->
  src:int ->
  dst:int ->
  Channel.t option
(** A point best-channel query as a first-class value — the seam that
    lets higher layers (Algorithm 4 via {!Multi_group.prim_for_users},
    the online policies) swap the flat whole-graph Dijkstra for an
    alternative strategy such as the hierarchical router in
    [Qnet_hier].  Contract: the returned channel joins [src] and [dst],
    crosses no element ruled out by [exclude], and is capacity-feasible
    under [capacity] {e without consuming from it}; [budget] meters the
    work and may raise {!Qnet_overload.Budget.Exhausted}. *)

val flat_oracle : Qnet_graph.Graph.t -> Params.t -> channel_oracle
(** {!best_channel} packaged as an oracle — the identity plug. *)

val all_pairs_best :
  ?exclude:exclusion ->
  ?budget:Qnet_overload.Budget.t ->
  Qnet_graph.Graph.t ->
  Params.t ->
  capacity:Capacity.t ->
  users:int list ->
  Channel.t list
(** Best channels for all unordered user pairs (omitting unreachable
    pairs), deduplicated, in no particular order. *)
