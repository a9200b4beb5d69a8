(** One serving run, described once.

    A scenario is the handful of numbers the paper fixes an instance by
    (users, switches with their qubits, swap rate [q], fibre loss
    [alpha], a topology family) plus the request workload and the
    serving settings around it: policy, overload control, faults and
    durability.  The CLI and the benchmark both describe their runs
    with this record; {!validate} is the one place its settings are
    checked and {!build} the one place they become a graph, a request
    list and an engine configuration.

    Numeric settings follow the CLI's conventions: where a setting
    documents "0 disables" (or "0 = unlimited", "0 = autotune"), 0 is
    the off value; every other negative or non-finite value is an
    error, never a silent "off". *)

type network = {
  seed : int;
      (** Topology, workload and fault randomness all derive from it. *)
  topology : string;  (** A {!Qnet_topology.Generate.of_name} name. *)
  users : int;
  switches : int;
  degree : float;  (** Target average vertex degree. *)
  qubits : int;  (** Memory qubits per switch. *)
  q : float;  (** BSM swap success probability. *)
  alpha : float;  (** Fibre attenuation per km-unit. *)
  regions : int;
      (** Continent tiles and k-means regions for hierarchical routing;
          0 autotunes from the switch count. *)
}

type policy = {
  name : string;  (** prim, alg2, alg3, eqcast or flow. *)
  hier : bool;  (** Route through the hierarchical oracle instead. *)
  tiers : string option;
      (** Comma-separated degradation ladder, replacing [name]. *)
  budget : int;
      (** Fuel per routing attempt (0 = unmetered); with [tiers], the
          per-tier fuel (0 = 4096). *)
}

type overload = {
  queue : int;  (** Waiting-queue bound; 0 rejects unroutable arrivals. *)
  retry_base : float;
  retry_max : float;
  max_queue : int;  (** Shedding threshold; 0 = unlimited. *)
  max_inflight : int;  (** Concurrent-lease cap; 0 = unlimited. *)
  rate : float;  (** Token-bucket rate; 0 = unlimited. *)
  burst : float;  (** Token-bucket depth; 0 = [max 1 rate]. *)
  flow_gate : bool;  (** Reject provably unservable groups at arrival. *)
}

type faults = {
  mtbf : float;  (** Per-element mean time between failures; 0 = off. *)
  mttr : float;
  targets : Qnet_faults.Model.target;
  regional : float;  (** Regional outages per time unit; 0 = off. *)
  radius : float;  (** Regional outage radius. *)
  recovery : Qnet_online.Engine.recovery;
}

type durability = {
  checkpoint_every : float;  (** Cut cadence; 0 = no checkpoints. *)
  checkpoint : string;  (** Cut file path. *)
  journal : string option;  (** Write-ahead journal path. *)
  restore : string option;  (** Cut to resume from. *)
  halt_at : float option;  (** Exit after the first cut at or past it. *)
  drill : float;  (** Crash-recovery drill cadence; 0 = plain run. *)
}

type t = {
  network : network;
  workload : Qnet_online.Workload.spec;
  policy : policy;
  overload : overload;
  faults : faults;
  reconfig : Qnet_online.Reconfig.event list;
  durability : durability;
  fail_on_sla : float option;
      (** Minimum acceptance percentage the run must reach. *)
}

val default_network : network
(** The paper's §V-A network: 10 users, 50 switches, degree 6, 4
    qubits, [q = 0.9], [alpha = 1e-4], Waxman, seed 1, autotuned
    regions. *)

val default : t
(** {!default_network} serving {!Qnet_online.Workload.default} with
    prim, a 32-deep queue, repair recovery and nothing else enabled —
    the CLI's [traffic] defaults. *)

val validate_network : network -> (network, string) result
(** Total: the network settings as {!Qnet_topology.Spec.create},
    {!Qnet_core.Params.create} and the topology generators would accept
    them, or [Error "--flag: reason"] for the first one that is not. *)

val validate : t -> (t, string) result
(** Total: every setting checked by the constructor that owns it
    ({!Qnet_online.Workload.spec}, {!Qnet_online.Engine.config},
    {!Qnet_overload.Admission.make}, {!Qnet_faults.Model.make},
    ...) plus the cross-setting rules no constructor can see, each
    reported as [Error "--flag: reason"].  Generates nothing: what
    only the generated instance can show is {!build}'s to check. *)

(** A built network. *)
type net = {
  graph : Qnet_graph.Graph.t;
  params : Qnet_core.Params.t;
  regions : int;  (** Resolved: never 0. *)
  partition : Qnet_hier.Partition.t Lazy.t;
      (** The hierarchical partition: the continent generator's own
          tiles, k-means regions otherwise. *)
}

val regions : network -> int
(** The region count, 0 resolved by {!Qnet_hier.Partition.auto_regions}. *)

val build_net : network -> net
(** The network of a {!validate_network}ed description.  Raises
    nothing on validated input. *)

type built = {
  net : net;
  requests : Qnet_online.Workload.request list;
  oracle : Qnet_hier.Oracle.t option;  (** With [policy.hier]. *)
  config : Qnet_online.Engine.config;
  fault_model : Qnet_faults.Model.t option;
  fingerprint : string;
      (** Everything that shapes the deterministic run, as the string a
          checkpoint cut carries: a cut restores only under an equal
          fingerprint, so this format is frozen. *)
}

val build : t -> (built, string) result
(** Build a {!validate}d scenario, or [Error "--flag: reason"] when
    the generated instance refutes a setting: a [reconfig] event that
    names an element the graph lacks ({!Qnet_online.Reconfig.validate}),
    or an arrival stream whose times overflow to infinity.  Raises
    nothing on validated input.  The workload stream is seeded [seed + 8_191] and the fault stream
    [seed + 40_961], both off the network seed.  A [flow] policy must
    be registered first ({!Qnet_flow.Serve.register}). *)
