(** Shortest paths, traversal and connectivity over {!Graph.t}.

    The Dijkstra variant here is deliberately parameterised on both the
    edge weight and a per-vertex admission predicate, because the
    paper's Algorithm 1 needs (a) the −log-space additive weight
    [α·L − ln q] and (b) "skip any switch with fewer than 2 free
    qubits / any foreign user" filtering baked into relaxation. *)

type dijkstra_result = {
  dist : float array;  (** [dist.(v)] is the shortest distance from the
                           nearest source, or [infinity] if unreachable. *)
  prev : int array;  (** Predecessor vertex on a shortest path, [-1] at
                         the sources and for unreachable vertices. *)
}

val dijkstra :
  Graph.t ->
  source:int ->
  ?sources:int list ->
  weight:(Graph.edge -> float) ->
  ?admit:(int -> bool) ->
  ?expand:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  ?targets:int list ->
  ?budget:Qnet_overload.Budget.t ->
  unit ->
  dijkstra_result
(** [dijkstra g ~source ~weight ()] runs single-source shortest paths.
    [sources] (default none) adds further zero-distance sources: the
    run then computes, for every vertex, the distance from the nearest
    of [source :: sources] — one multi-source search instead of one
    search per source.  [admit v] (default: always [true]) controls
    whether a non-source vertex may be {e entered} during relaxation;
    inadmissible vertices keep [dist = infinity].  [expand v] (default:
    always [true]) controls whether a settled non-source vertex relaxes
    its own neighbours — with [expand] false a vertex can terminate
    paths but not relay them, which is how quantum users are kept out
    of channel interiors.  Sources are always expanded.  [edge_ok eid]
    (default: always [true]) filters individual edges out of relaxation
    — the hook fault-aware routing uses to exclude failed fibers without
    rebuilding the graph.

    With [?targets] the run stops as soon as every listed target has
    settled (been popped from the heap), turning an s-t or set-to-set
    query from settle-the-graph into settle-until-targets.  A settled
    target still expands while other targets are pending.  Each
    target's [dist] and [prev], and those of every vertex settled
    before the run stopped, are exactly as in the full run —
    {!extract_path} to a target is unaffected — but off-target vertices
    still on the frontier keep tentative (over-)estimates.  An
    unreachable target never settles, so the run then drains the whole
    reachable graph.  Omit [targets] (or pass [[]]) when the result is
    reused for other destinations.

    With [?budget] every heap pop charges one unit of fuel;
    {!Qnet_overload.Budget.Exhausted} aborts the run the moment the
    budget empties (the per-domain scratch heap is still returned).
    Fuel counts expansions, not time, so budgeted runs stay
    deterministic at every [--jobs] level.
    @raise Invalid_argument if a source or target is out of range, or
    any relaxed edge has negative weight.
    @raise Qnet_overload.Budget.Exhausted when the fuel runs out. *)

val extract_path : dijkstra_result -> target:int -> int list option
(** The vertex sequence [s; …; target] along the recorded predecessors,
    from the source [s] the path starts at, or [None] if [target] was
    unreachable. *)

val shortest_path :
  Graph.t ->
  source:int ->
  target:int ->
  weight:(Graph.edge -> float) ->
  ?admit:(int -> bool) ->
  ?expand:(int -> bool) ->
  ?edge_ok:(int -> bool) ->
  ?budget:Qnet_overload.Budget.t ->
  unit ->
  (int list * float) option
(** One-shot wrapper returning the path and its total weight. *)

val bfs_order : Graph.t -> source:int -> int list
(** Vertices reachable from [source] in breadth-first order. *)

val bfs_hops : Graph.t -> source:int -> int array
(** Hop counts from [source]; [-1] for unreachable vertices. *)

val connected_components : Graph.t -> int list list
(** All components, each sorted ascending; components ordered by their
    smallest member. *)

val is_connected : Graph.t -> bool
(** Whether the whole graph is one component ([true] for empty and
    singleton graphs). *)

val users_connected : Graph.t -> bool
(** Whether all user vertices lie in one component — the obvious
    necessary condition for any MUERP instance to be feasible. *)

val path_is_valid : Graph.t -> int list -> bool
(** [path_is_valid g p] checks that consecutive vertices of [p] are
    joined by edges and that [p] repeats no vertex. *)

val path_length : Graph.t -> int list -> float
(** Total fiber length along a vertex path.
    @raise Invalid_argument if some consecutive pair has no edge. *)

val path_edges : Graph.t -> int list -> int list
(** Edge ids along a vertex path.  @raise Invalid_argument as above. *)
