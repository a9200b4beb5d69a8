(** The flow optimizer on the online serving path.

    [policy ()] is the ["flow"] {!Qnet_online.Policy.t}: per request it
    builds the LP relaxation over the {e live residual} capacity
    ({!Lp.relax} with capacity rows), rounds the fractional optimum to
    an integral tree ({!Rounding.round}, seeded deterministically from
    the user group so equal requests round equally at every [--jobs]
    level), and falls back to Algorithm 4
    ({!Qnet_core.Multi_group.prim_for_users}) when rounding cannot
    realise a tree — so the policy never serves less than the prim
    baseline would, and never serves anything infeasible (both paths
    respect the Policy contract: consumption only on success, budget
    exhaustion rolled back). *)

val policy : ?seed:int -> unit -> Qnet_online.Policy.t
(** A fresh ["flow"] policy.  [seed] (default a fixed constant) is
    mixed with each request's user group to seed the rounding draw. *)

val register : unit -> unit
(** Make ["flow"] resolvable through
    {!Qnet_online.Policy.of_name}.  Idempotent; the CLI and
    bench call it at startup — library module initialisation alone must
    not be relied on for side effects under dune's selective
    linking. *)
