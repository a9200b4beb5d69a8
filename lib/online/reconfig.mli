(** Live topology reconfiguration events.

    Operator-driven changes the engine applies mid-run, without
    draining traffic: switches joining/leaving service, links
    added/removed, and qubit re-provisioning.  The network graph itself
    is immutable, so membership changes are modelled as administrative
    availability transitions over {e existing} elements — a leave is
    operationally a drain (the element stops carrying new channels and
    in-flight leases crossing it are recovered), a join re-admits it.
    [Provision] moves the {!Qnet_core.Capacity} quota of a switch;
    shrinking below current usage forces the engine to recover enough
    leases through the switch to fit the new budget.

    Leaves/removals and joins/additions reuse the fault subsystem's
    {!Qnet_faults.Health} availability state, so recovery, routing
    exclusion, and cache invalidation behave identically whether an
    element went away by failure or by administration. *)

type change =
  | Switch_leave of int  (** Vertex id drains out of service. *)
  | Switch_join of int  (** Vertex id re-enters service. *)
  | Link_remove of int  (** Edge id taken down. *)
  | Link_add of int  (** Edge id brought (back) up. *)
  | Provision of { switch : int; qubits : int }
      (** Move the switch's qubit quota to [qubits]. *)

type event = { time : float; change : change }

val version : string
(** The document tag, [muerp-reconfig/1]. *)

val change_target : change -> [ `Switch of int | `Link of int ]

val validate :
  Qnet_graph.Graph.t -> event list -> (unit, string) result
(** Check every event against the graph: ids in range, switch targets
    are switches, provisioned qubits non-negative, times finite and
    non-negative.  The error message names the offending event (1-based)
    and reason. *)

val to_sexp : event list -> Qnet_util.Sexp.t
(** [(muerp-reconfig/1 (at T CHANGE) ...)]. *)

val of_sexp : Qnet_util.Sexp.t -> (event list, string) result
(** Inverse of {!to_sexp}; rejects unknown versions and malformed
    events with a human-readable reason. *)

val change_to_sexp : change -> Qnet_util.Sexp.t
val pp_change : Format.formatter -> change -> unit
