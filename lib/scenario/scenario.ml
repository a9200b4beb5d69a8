module Graph = Qnet_graph.Graph
module Spec = Qnet_topology.Spec
module Generate = Qnet_topology.Generate
module Params = Qnet_core.Params
module Workload = Qnet_online.Workload
module Policy = Qnet_online.Policy
module Engine = Qnet_online.Engine
module Reconfig = Qnet_online.Reconfig
module Admission = Qnet_overload.Admission
module Model = Qnet_faults.Model
module Partition = Qnet_hier.Partition

type network = {
  seed : int;
  topology : string;
  users : int;
  switches : int;
  degree : float;
  qubits : int;
  q : float;
  alpha : float;
  regions : int;
}

type policy = {
  name : string;
  hier : bool;
  tiers : string option;
  budget : int;
}

type overload = {
  queue : int;
  retry_base : float;
  retry_max : float;
  max_queue : int;
  max_inflight : int;
  rate : float;
  burst : float;
  flow_gate : bool;
}

type faults = {
  mtbf : float;
  mttr : float;
  targets : Model.target;
  regional : float;
  radius : float;
  recovery : Engine.recovery;
}

type durability = {
  checkpoint_every : float;
  checkpoint : string;
  journal : string option;
  restore : string option;
  halt_at : float option;
  drill : float;
}

type t = {
  network : network;
  workload : Workload.spec;
  policy : policy;
  overload : overload;
  faults : faults;
  reconfig : Reconfig.event list;
  durability : durability;
  fail_on_sla : float option;
}

let default_network =
  {
    seed = 1;
    topology = "waxman";
    users = Spec.default.n_users;
    switches = Spec.default.n_switches;
    degree = Spec.default.avg_degree;
    qubits = Spec.default.qubits_per_switch;
    q = Params.default.q;
    alpha = Params.default.alpha;
    regions = 0;
  }

let default =
  {
    network = default_network;
    workload = Workload.default;
    policy = { name = "prim"; hier = false; tiers = None; budget = 0 };
    overload =
      {
        queue = 32;
        retry_base = 0.5;
        retry_max = 8.;
        max_queue = 0;
        max_inflight = 0;
        rate = 0.;
        burst = 0.;
        flow_gate = false;
      };
    faults =
      {
        mtbf = 0.;
        mttr = 10.;
        targets = Model.Both;
        regional = 0.;
        radius = 100.;
        recovery = Engine.Repair;
      };
    reconfig = [];
    durability =
      {
        checkpoint_every = 0.;
        checkpoint = "muerp.ckpt";
        journal = None;
        restore = None;
        halt_at = None;
        drill = 0.;
      };
    fail_on_sla = None;
  }

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)

(* Each setting is checked under its flag name, by the constructor
   that owns it or by a rule no constructor can see; both signal with
   [Invalid_argument], and the first failure is the error. *)
let first_failure checks x =
  match
    List.find_map
      (fun (flag, check) ->
        match check () with
        | () -> None
        | exception Invalid_argument m -> Some (flag ^ ": " ^ m))
      checks
  with
  | None -> Ok x
  | Some e -> Error e

let require cond msg () = if not cond then invalid_arg msg

(* The settings whose 0 means "off" and that no constructor sees in
   that form: anything negative or non-finite would otherwise also
   read as "off". *)
let finite x () =
  if not (Float.is_finite x && x >= 0.) then
    invalid_arg (Printf.sprintf "must be a finite number >= 0, not %g" x)

let some_unless_zero zero x = if x = zero then None else Some x

let regions n =
  if n.regions = 0 then Partition.auto_regions n.switches else n.regions

let validate_network n =
  first_failure
    [
      ("--users", fun () -> ignore (Spec.create ~n_users:n.users ()));
      ("--switches", fun () -> ignore (Spec.create ~n_switches:n.switches ()));
      ("--degree", fun () -> ignore (Spec.create ~avg_degree:n.degree ()));
      ( "--qubits",
        fun () -> ignore (Spec.create ~qubits_per_switch:n.qubits ()) );
      ("--swap-rate", fun () -> ignore (Params.create ~q:n.q ()));
      ("--alpha", fun () -> ignore (Params.create ~alpha:n.alpha ()));
      ("--regions", require (n.regions >= 0) "must be >= 0");
      ( "--topology",
        (* The generators' own preconditions, checked before generating. *)
        fun () ->
          match Generate.of_name n.topology with
          | None ->
              invalid_arg
                (Printf.sprintf
                   "unknown topology %S (expected waxman, watts-strogatz, \
                    volchenkov, grid or continent)"
                   n.topology)
          | Some Generate.Grid ->
              require
                (n.switches >= max 2 n.users)
                "grid needs at least 2 switches and one per user \
                 (--switches)"
                ()
          | Some (Generate.Watts_strogatz _) ->
              require
                (n.users + n.switches >= 3)
                "watts-strogatz needs at least 3 vertices (--users + \
                 --switches)"
                ()
          | Some (Generate.Continent _) ->
              let regions = regions n in
              require (n.switches >= regions)
                (Printf.sprintf
                   "continent needs a switch per region: --switches %d < %d \
                    regions (--regions)"
                   n.switches regions)
                ()
          | Some (Generate.Waxman _ | Generate.Volchenkov _) -> () );
    ]
    n

let tier_names s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun n -> n <> "")

let admission queue = if queue = 0 then Engine.Reject else Engine.Queue queue

let max_group = function
  | Workload.Fixed k -> k
  | Workload.Uniform (_, hi) | Workload.Pareto_group { hi; _ } -> hi

type net = {
  graph : Graph.t;
  params : Params.t;
  regions : int;
  partition : Partition.t Lazy.t;
}

let build_net n =
  let spec =
    Spec.create ~n_users:n.users ~n_switches:n.switches ~avg_degree:n.degree
      ~qubits_per_switch:n.qubits ()
  in
  let regions = regions n in
  let rng = Qnet_util.Prng.create n.seed in
  let graph, labels =
    match Generate.of_name n.topology with
    | Some (Generate.Continent params) ->
        (* The continent generator's tiles are an exact partition, so
           hierarchical routing gets it for free. *)
        let g, labels =
          Qnet_topology.Continent.generate_labeled
            ~params:{ params with regions } rng spec
        in
        (g, Some labels)
    | Some kind -> (Generate.run kind rng spec, None)
    | None -> invalid_arg ("Scenario.build_net: topology " ^ n.topology)
  in
  let partition =
    lazy
      (match labels with
      | Some labels -> Partition.of_assignment graph labels
      | None -> Partition.kmeans ~regions ~seed:n.seed graph)
  in
  { graph; params = Params.create ~alpha:n.alpha ~q:n.q (); regions; partition }

let validate t =
  let n = t.network
  and w = t.workload
  and p = t.policy
  and o = t.overload
  and f = t.faults
  and d = t.durability in
  let known name () =
    if Policy.of_name name = None then
      invalid_arg
        (Printf.sprintf "unknown policy %S (expected prim|alg2|alg3|eqcast|flow)"
           name)
  in
  let checkpoints = d.checkpoint_every > 0. in
  Result.bind (validate_network n) @@ fun _ ->
  first_failure
    [
      ("--requests", fun () -> ignore (Workload.spec ~requests:w.requests ()));
      ("--arrival", fun () -> ignore (Workload.spec ~arrivals:w.arrivals ()));
      ( "--modulate",
        fun () -> ignore (Workload.spec ~modulation:w.modulation ()) );
      ("--group", fun () -> ignore (Workload.spec ~group_size:w.group_size ()));
      ( "--group",
        require
          (max_group w.group_size <= n.users)
          (Printf.sprintf "groups of up to %d users exceed --users %d"
             (max_group w.group_size) n.users) );
      ( "--duration-min/--duration-max",
        fun () -> ignore (Workload.spec ~duration:w.duration ()) );
      ( "--patience-min/--patience-max",
        fun () -> ignore (Workload.spec ~patience:w.patience ()) );
      ( "--hier",
        require (not (p.hier && p.tiers <> None)) "cannot be combined with --tiers"
      );
      ("--budget", require (p.budget >= 0) "must be >= 0");
      ( "--tiers",
        fun () ->
          Option.iter
            (fun s ->
              match tier_names s with
              | [] -> invalid_arg "no tier names"
              | names -> List.iter (fun name -> known name ()) names)
            p.tiers );
      ("--policy", if p.hier || p.tiers <> None then ignore else known p.name);
      ( "--queue",
        fun () ->
          ignore (Engine.config ~admission:(admission o.queue) Policy.prim) );
      ( "--retry-base/--retry-max",
        fun () ->
          ignore
            (Engine.config ~retry_base:o.retry_base ~retry_max:o.retry_max
               Policy.prim) );
      ( "--max-queue",
        fun () ->
          ignore (Admission.make ?max_queue:(some_unless_zero 0 o.max_queue) ())
      );
      ( "--max-inflight",
        fun () ->
          ignore
            (Admission.make ?max_inflight:(some_unless_zero 0 o.max_inflight) ())
      );
      ( "--rate",
        fun () -> ignore (Admission.make ?rate:(some_unless_zero 0. o.rate) ()) );
      ( "--burst",
        fun () -> ignore (Admission.make ?burst:(some_unless_zero 0. o.burst) ())
      );
      ("--fault-mtbf", finite f.mtbf);
      ("--fault-mttr", finite f.mttr);
      ("--fault-mttr", fun () -> ignore (Model.make ~mttr:f.mttr ()));
      ("--fault-regional", finite f.regional);
      ("--fault-radius", finite f.radius);
      ("--checkpoint-every", finite d.checkpoint_every);
      ("--drill", finite d.drill);
      ("--halt-at", fun () -> Option.iter (fun h -> finite h ()) d.halt_at);
      ( "--fail-on-sla",
        fun () -> Option.iter (fun pct -> finite pct ()) t.fail_on_sla );
      ( "--halt-at",
        require (d.halt_at = None || checkpoints) "requires --checkpoint-every" );
      ( "--journal",
        require
          (d.journal = None || checkpoints || d.restore <> None)
          "requires --checkpoint-every or --restore" );
      (* The drill owns the checkpoint/restore cycle itself, journal
         included. *)
      ( "--drill",
        require
          (d.drill = 0.
          || not
               (checkpoints || d.restore <> None || d.halt_at <> None
              || d.journal <> None))
          "cannot be combined with --checkpoint-every, --restore, --halt-at \
           or --journal" );
    ]
    t

(* ------------------------------------------------------------------ *)
(* Build                                                               *)

type built = {
  net : net;
  requests : Workload.request list;
  oracle : Qnet_hier.Oracle.t option;
  config : Engine.config;
  fault_model : Model.t option;
  fingerprint : string;
}

let fingerprint t (net : net) (policy : Policy.t) =
  let n = t.network and p = t.policy and o = t.overload and f = t.faults in
  Format.asprintf
    "seed=%d topology=%s users=%d switches=%d degree=%.17g qubits=%d \
     q=%.17g alpha=%.17g regions=%d workload=[%a] policy=%s%s queue=%d \
     retry=%.17g/%.17g overload=%d/%d/%.17g/%.17g/%d/%b \
     faults=%.17g/%.17g/%s/%.17g/%.17g recovery=%s reconfig=%s"
    n.seed n.topology n.users n.switches n.degree n.qubits n.q n.alpha
    net.regions Workload.pp_spec t.workload policy.Policy.name
    (match p.tiers with Some s -> " tiers=" ^ s | None -> "")
    o.queue o.retry_base o.retry_max o.max_queue o.max_inflight o.rate
    o.burst p.budget o.flow_gate f.mtbf f.mttr
    (Model.target_to_string f.targets)
    f.regional f.radius
    (Engine.recovery_to_string f.recovery)
    (if t.reconfig = [] then "none"
     else
       Digest.to_hex
         (Digest.string
            (Qnet_util.Sexp.to_string (Reconfig.to_sexp t.reconfig))))

let build t =
  let n = t.network and p = t.policy and o = t.overload and f = t.faults in
  let net = build_net n in
  let g = net.graph in
  let requests =
    Workload.generate (Qnet_util.Prng.create (n.seed + 8_191)) g t.workload
  in
  (* What only the generated instance shows: events naming elements
     this graph lacks, and an arrival stream that overflows. *)
  let ( let* ) = Result.bind in
  let* () =
    Result.map_error (( ^ ) "--reconfig: ") (Reconfig.validate g t.reconfig)
  in
  let* () =
    match
      List.find_opt (fun r -> not (Float.is_finite r.Workload.arrival)) requests
    with
    | Some r ->
        Error
          (Printf.sprintf "--arrival: request %d would arrive at t=%g"
             r.Workload.id r.Workload.arrival)
    | None -> Ok ()
  in
  let oracle =
    if p.hier then
      Some (Qnet_hier.Oracle.create g net.params (Lazy.force net.partition))
    else None
  in
  let policy, tier_stats =
    match (oracle, p.tiers) with
    | Some oracle, _ -> (Qnet_hier.Serve.policy oracle, None)
    | None, None -> (Option.get (Policy.of_name p.name), None)
    | None, Some s ->
        let fuel = if p.budget > 0 then p.budget else 4096 in
        let tp, stats =
          Policy.tiered ~fuel
            (List.map
               (fun name -> Option.get (Policy.of_name name))
               (tier_names s))
        in
        (tp, Some stats)
  in
  let overload =
    Admission.make
      ?max_queue:(some_unless_zero 0 o.max_queue)
      ?max_inflight:(some_unless_zero 0 o.max_inflight)
      ?rate:(some_unless_zero 0. o.rate)
      ?burst:(some_unless_zero 0. o.burst)
      ?infeasible:
        (if o.flow_gate then Some (Qnet_flow.Gate.predicate g) else None)
      ()
  in
  let config =
    Engine.config ~admission:(admission o.queue) ~retry_base:o.retry_base
      ~retry_max:o.retry_max ~recovery:f.recovery ~overload
      ?budget:(if p.budget > 0 && tier_stats = None then Some p.budget else None)
      ?tier_stats policy
  in
  let fault_model =
    if f.mtbf > 0. || f.regional > 0. then
      Some
        (Model.make
           ~mtbf:(if f.mtbf > 0. then f.mtbf else infinity)
           ~mttr:f.mttr ~targets:f.targets ~regional_rate:f.regional
           ~regional_radius:f.radius ~seed:(n.seed + 40_961) ())
    else None
  in
  Ok
    {
      net;
      requests;
      oracle;
      config;
      fault_model;
      fingerprint = fingerprint t net policy;
    }
