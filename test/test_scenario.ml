(* Tests for qnet_scenario: validation is total, and a validated
   scenario always builds, into requests the engine accepts or into an
   [Error].  Independent of the CLI: records are drawn directly, each
   field either at its default or at a hostile value — floats from
   {nan, +-inf, -1, 0, small positive, subnormal, huge}, ints from
   {-5, 0, 1, 3}. *)

module Scenario = Qnet_scenario.Scenario
module Workload = Qnet_online.Workload
module Reconfig = Qnet_online.Reconfig
module Gen = QCheck.Gen

let hostile_float =
  Gen.oneof
    [
      Gen.oneofl
        [ Float.nan; Float.infinity; Float.neg_infinity; -1.; 0.; 1e-320; 1e308 ];
      Gen.float_range 0.01 4.;
    ]

let hostile_int = Gen.oneofl [ -5; 0; 1; 3 ]

(* Mostly the default, so that whole records validate often enough for
   [build] to be exercised too. *)
let field default hostile = Gen.frequency [ (12, Gen.return default); (1, hostile) ]
let f default = field default hostile_float
let i default = field default hostile_int
let twice g = Gen.pair g g

let network =
  let d = Scenario.default_network in
  let open Gen in
  let* seed = int_range 0 1000 in
  let* topology =
    field d.topology
      (oneofl [ "watts-strogatz"; "volchenkov"; "grid"; "continent"; "bogus" ])
  in
  let* users = i d.users and* switches = i d.switches in
  let* degree = f d.degree and* qubits = i d.qubits in
  let* q = f d.q and* alpha = f d.alpha and* regions = i d.regions in
  return
    { Scenario.seed; topology; users; switches; degree; qubits; q; alpha; regions }

let workload =
  let d = Scenario.default.workload in
  let open Gen in
  let* requests = i d.requests in
  let* arrivals =
    field d.arrivals
      (oneof
         [
           map (fun r -> Workload.Poisson r) hostile_float;
           map2
             (fun period size -> Workload.Batched { period; size })
             hostile_float hostile_int;
           map3
             (fun alpha lo hi -> Workload.Pareto { alpha; lo; hi })
             hostile_float hostile_float hostile_float;
         ])
  in
  let* group_size =
    field d.group_size
      (oneof
         [
           map (fun k -> Workload.Fixed k) hostile_int;
           map2 (fun lo hi -> Workload.Uniform (lo, hi)) hostile_int hostile_int;
           map3
             (fun alpha lo hi -> Workload.Pareto_group { alpha; lo; hi })
             hostile_float hostile_int hostile_int;
         ])
  in
  let* duration = field d.duration (twice hostile_float) in
  let* patience = field d.patience (twice hostile_float) in
  let* modulation =
    field d.modulation
      (oneof
         [
           map2
             (fun period amplitude -> Workload.Diurnal { period; amplitude })
             hostile_float hostile_float;
           map3
             (fun at width boost -> Workload.Flash { at; width; boost })
             hostile_float hostile_float hostile_float;
         ])
  in
  return
    { Workload.requests; arrivals; group_size; duration; patience; modulation }

let scenario =
  let d = Scenario.default in
  let open Gen in
  let* network = network and* workload = workload in
  let* name = field d.policy.name (oneofl [ "alg3"; "eqcast"; "flow"; "bogus" ]) in
  let* hier = frequency [ (4, return false); (1, return true) ] in
  let* tiers = opt ~ratio:0.1 (oneofl [ ""; "alg3,prim"; "alg3>>prim" ]) in
  let* budget = i d.policy.budget in
  let o = d.overload in
  let* queue = i o.queue and* retry_base = f o.retry_base in
  let* retry_max = f o.retry_max and* max_queue = i o.max_queue in
  let* max_inflight = i o.max_inflight and* rate = f o.rate in
  let* burst = f o.burst and* flow_gate = bool in
  let fd = d.faults in
  let* mtbf = f fd.mtbf and* mttr = f fd.mttr and* regional = f fd.regional in
  let* radius = f fd.radius in
  let* targets = oneofl Qnet_faults.Model.[ Links; Switches; Both ] in
  let* recovery = oneofl Qnet_online.Engine.[ Abort; Repair; Reroute ] in
  let* reconfig =
    field []
      (list_size (int_range 1 2)
         (map2
            (fun time change -> { Reconfig.time; change })
            hostile_float
            (oneof
               [
                 map (fun v -> Reconfig.Switch_leave v) hostile_int;
                 map (fun e -> Reconfig.Link_remove e) hostile_int;
                 map2
                   (fun switch qubits -> Reconfig.Provision { switch; qubits })
                   hostile_int hostile_int;
               ])))
  in
  let dd = d.durability in
  let* checkpoint_every = f dd.checkpoint_every and* drill = f dd.drill in
  let* journal = opt ~ratio:0.1 (return "run.journal") in
  let* restore = opt ~ratio:0.1 (return "run.ckpt") in
  let* halt_at = opt ~ratio:0.1 hostile_float and* fail_on_sla = opt ~ratio:0.1 hostile_float in
  return
    {
      Scenario.network;
      workload;
      policy = { Scenario.name; hier; tiers; budget };
      overload =
        {
          Scenario.queue;
          retry_base;
          retry_max;
          max_queue;
          max_inflight;
          rate;
          burst;
          flow_gate;
        };
      faults = { Scenario.mtbf; mttr; targets; regional; radius; recovery };
      reconfig;
      durability =
        {
          dd with
          Scenario.checkpoint_every;
          journal;
          restore;
          halt_at;
          drill;
        };
      fail_on_sla;
    }

let validated = ref 0

let prop_total =
  QCheck.Test.make ~count:3000
    ~name:"validate never raises; Ok builds without raising"
    (QCheck.make scenario)
    (fun s ->
      match Scenario.validate s with
      | Error _ -> true
      | Ok s -> (
          incr validated;
          match Scenario.build s with
          | Error _ -> true
          | Ok b ->
              (* The engine's own input checks, on what it will see. *)
              List.for_all
                (fun (r : Workload.request) ->
                  Float.is_finite r.arrival && r.arrival >= 0.
                  && Float.is_finite r.duration && r.duration > 0.
                  && r.deadline >= r.arrival)
                b.requests))

let test_total () =
  QCheck.Test.check_exn prop_total;
  (* The property is vacuous unless whole records validate. *)
  Alcotest.(check bool) "some scenarios validated" true (!validated >= 50)

let test_default_builds () =
  match Scenario.validate Scenario.default with
  | Error m -> Alcotest.fail m
  | Ok s ->
      let b = Result.get_ok (Scenario.build s) in
      Alcotest.(check int)
        "default workload size" Scenario.default.workload.requests
        (List.length b.requests)

let error_names flag = function
  | Ok _ -> Alcotest.failf "expected an error naming %s" flag
  | Error m ->
      Alcotest.(check bool) (m ^ " names " ^ flag) true
        (String.starts_with ~prefix:(flag ^ ":") m)

(* What only the generated instance shows is [build]'s error. *)
let test_instance_errors () =
  let d = Scenario.default in
  let overflowing =
    {
      d with
      workload =
        {
          d.workload with
          requests = 3;
          arrivals = Workload.Batched { size = 1; period = 1e308 };
        };
    }
  in
  error_names "--arrival" (Result.bind (Scenario.validate overflowing) Scenario.build);
  let unknown_switch =
    { d with reconfig = [ { Reconfig.time = 1.; change = Reconfig.Switch_leave 10_000 } ] }
  in
  error_names "--reconfig"
    (Result.bind (Scenario.validate unknown_switch) Scenario.build)

let () =
  Qnet_flow.Serve.register ();
  Alcotest.run "scenario"
    [
      ( "validate",
        [
          Alcotest.test_case "default builds" `Quick test_default_builds;
          Alcotest.test_case "instance errors" `Quick test_instance_errors;
          Alcotest.test_case "total (qcheck)" `Slow test_total;
        ] );
    ]
