(** Hierarchical routing behind the online traffic engine.

    {!policy} wraps an {!Oracle} as a {!Qnet_online.Policy.t} named
    ["hier-prim"]: per request, Algorithm 4 grows the group's tree with
    every attachment answered hierarchically, consuming capacity on
    success exactly like the flat ["prim"] policy — so the engine's
    oversubscription invariant, verification watchdog and determinism
    contract all hold unchanged.

    {!attach_health} closes the fault loop: it registers a
    {!Qnet_faults.Health.on_transition} observer that eagerly drops the
    oracle's cached segments in the region(s) touched by every element
    transition, so post-fault queries never pay the lazy-revalidation
    walk over known-dead paths. *)

val policy : Oracle.t -> Qnet_online.Policy.t
(** The ["hier-prim"] policy.  The engine must be run over the same
    graph the oracle was built on.  The oracle's segment cache is carried across snapshot/restore through
    {!Skeleton.export}/{!Skeleton.import} (a cold cache would change
    which corridors win and break byte-identical restore).
    @raise Invalid_argument (at route time) if the graphs differ. *)

val attach_health : Oracle.t -> Qnet_faults.Health.t -> unit
(** Eager exclusion-driven invalidation: every [Went_down]/[Came_up]
    transition invalidates the touched region's segment cache. *)
