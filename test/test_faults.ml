(* Unit tests for qnet_faults and the engine's fault path: model
   validation, schedule generation (determinism, ordering, alternation,
   targeting, regional correlation), health bookkeeping, and the
   recovery policies driven through explicit fault schedules. *)

module Graph = Qnet_graph.Graph
module Prng = Qnet_util.Prng
module Model = Qnet_faults.Model
module Schedule = Qnet_faults.Schedule
module Health = Qnet_faults.Health
module Workload = Qnet_online.Workload
module Policy = Qnet_online.Policy
module Engine = Qnet_online.Engine
open Qnet_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let params = Params.default

let network ?(users = 8) ?(switches = 25) ?(qubits = 4) seed =
  let rng = Prng.create seed in
  let spec =
    Qnet_topology.Spec.create ~n_users:users ~n_switches:switches
      ~qubits_per_switch:qubits ()
  in
  Qnet_topology.Waxman.generate rng spec

(* Four users joined through one 2-qubit hub: kill the hub and nothing
   can be repaired — the canonical abort instance. *)
let hub_network () =
  let b = Graph.Builder.create () in
  let user x y = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x ~y in
  let a0 = user 0. 0. in
  let a1 = user 2000. 0. in
  let b0 = user 0. 1000. in
  let b1 = user 2000. 1000. in
  let hub =
    Graph.Builder.add_vertex b ~kind:Graph.Switch ~qubits:2 ~x:1000. ~y:500.
  in
  List.iter
    (fun u -> ignore (Graph.Builder.add_edge b u hub 1200.))
    [ a0; a1; b0; b1 ];
  (Graph.Builder.freeze b, (a0, a1), hub)

(* Two users reachable through either of two parallel switches: killing
   the one in use leaves a live detour — the canonical repair
   instance. *)
let parallel_network () =
  let b = Graph.Builder.create () in
  let u0 = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x:0. ~y:0. in
  let u1 =
    Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x:2000. ~y:0.
  in
  let sa =
    Graph.Builder.add_vertex b ~kind:Graph.Switch ~qubits:2 ~x:1000. ~y:100.
  in
  let sb =
    Graph.Builder.add_vertex b ~kind:Graph.Switch ~qubits:2 ~x:1000. ~y:(-300.)
  in
  List.iter
    (fun s ->
      ignore (Graph.Builder.add_edge b u0 s 1100.);
      ignore (Graph.Builder.add_edge b s u1 1100.))
    [ sa; sb ];
  (Graph.Builder.freeze b, (u0, u1), (sa, sb))

let request ?(duration = 4.) ?(patience = 0.) id users arrival =
  { Workload.id; users; arrival; deadline = arrival +. patience; duration }

let down ?(t = 1.) e = { Schedule.time = t; element = e; up = false }
let up ?(t = 1.) e = { Schedule.time = t; element = e; up = true }

(* ------------------------------------------------------------------ *)
(* Model                                                               *)

let test_model_validation () =
  let m = Model.make () in
  check_bool "default model disabled" false (Model.enabled m);
  check_bool "default independent off" false (Model.independent_enabled m);
  let m = Model.make ~mtbf:20. () in
  check_bool "finite mtbf enables" true
    (Model.enabled m && Model.independent_enabled m);
  let m = Model.make ~regional_rate:0.1 () in
  check_bool "regional alone enables" true (Model.enabled m);
  check_bool "regional alone is not independent" false
    (Model.independent_enabled m);
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  raises "Faults.Model.make: mttr must be > 0" (fun () ->
      ignore (Model.make ~mttr:0. ()));
  raises "Faults.Model.make: negative regional_rate" (fun () ->
      ignore (Model.make ~regional_rate:(-1.) ()));
  raises "Faults.Model.make: negative regional_radius" (fun () ->
      ignore (Model.make ~regional_radius:(-1.) ()))

let test_target_strings () =
  List.iter
    (fun t ->
      match Model.target_of_string (Model.target_to_string t) with
      | Ok t' -> check_bool "round trip" true (t = t')
      | Error e -> Alcotest.fail e)
    [ Model.Links; Model.Switches; Model.Both ];
  check_bool "unknown rejected" true
    (Result.is_error (Model.target_of_string "fiber"))

(* ------------------------------------------------------------------ *)
(* Schedule                                                            *)

let test_schedule_deterministic () =
  let g = network 1 in
  let model = Model.make ~mtbf:15. ~mttr:3. ~regional_rate:0.02 ~seed:7 () in
  let s1 = Schedule.generate model g ~horizon:60. in
  let s2 = Schedule.generate model g ~horizon:60. in
  check_bool "same model, same schedule" true (s1 = s2);
  check_bool "non-empty" true (s1 <> []);
  let other = Schedule.generate { model with Model.seed = 8 } g ~horizon:60. in
  check_bool "different seed, different schedule" true (s1 <> other);
  check_bool "sorted" true
    (List.sort Schedule.compare_event s1 = s1);
  List.iter
    (fun (e : Schedule.event) ->
      check_bool "within horizon" true (e.Schedule.time >= 0. && e.time < 60.))
    s1

let test_schedule_disabled_or_empty () =
  let g = network 2 in
  check_bool "disabled model yields nothing" true
    (Schedule.generate (Model.make ()) g ~horizon:100. = []);
  let model = Model.make ~mtbf:5. () in
  check_bool "zero horizon yields nothing" true
    (Schedule.generate model g ~horizon:0. = [])

let test_schedule_alternation () =
  let g = network 3 in
  let model = Model.make ~mtbf:8. ~mttr:2. ~seed:4 () in
  let sched = Schedule.generate model g ~horizon:200. in
  (* Per element: transitions strictly alternate, starting with a
     failure (elements start healthy), at increasing times. *)
  let by_element = Hashtbl.create 16 in
  List.iter
    (fun (e : Schedule.event) ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt by_element e.element)
      in
      Hashtbl.replace by_element e.element (e :: prev))
    sched;
  Hashtbl.iter
    (fun _ evs ->
      let evs = List.rev evs in
      List.iteri
        (fun i (e : Schedule.event) ->
          check_bool "alternates starting down" true (e.up = (i mod 2 = 1)))
        evs;
      let times = List.map (fun (e : Schedule.event) -> e.Schedule.time) evs in
      check_bool "times increase" true (List.sort compare times = times))
    by_element

let test_schedule_targets () =
  let g = network 4 in
  let gen targets =
    Schedule.generate (Model.make ~mtbf:5. ~mttr:2. ~targets ~seed:1 ()) g
      ~horizon:100.
  in
  let is_link (e : Schedule.event) =
    match e.element with Schedule.Link _ -> true | Schedule.Switch _ -> false
  in
  check_bool "links only" true (List.for_all is_link (gen Model.Links));
  check_bool "switches only" true
    (List.for_all (fun e -> not (is_link e)) (gen Model.Switches));
  let both = gen Model.Both in
  check_bool "both kinds present" true
    (List.exists is_link both && List.exists (fun e -> not (is_link e)) both)

let test_schedule_regional_correlation () =
  let g = network 5 in
  (* A radius swallowing the whole layout: every outage must take down
     many elements at one instant and bring them back at one instant. *)
  let model =
    Model.make ~regional_rate:0.05 ~regional_radius:1.e6 ~mttr:4. ~seed:9 ()
  in
  let sched = Schedule.generate model g ~horizon:100. in
  check_bool "outages happened" true (sched <> []);
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (e : Schedule.event) ->
      let key = (e.Schedule.time, e.up) in
      Hashtbl.replace groups key
        (1 + Option.value ~default:0 (Hashtbl.find_opt groups key)))
    sched;
  Hashtbl.iter
    (fun _ n -> check_bool "correlated transition batch" true (n > 1))
    groups;
  (* Failure instants and repair instants pair up, except that repairs
     landing past the horizon are clipped off the schedule. *)
  let downs = Hashtbl.fold (fun (_, u) _ n -> if u then n else n + 1) groups 0 in
  let ups = Hashtbl.fold (fun (_, u) _ n -> if u then n + 1 else n) groups 0 in
  check_bool "repair instants never exceed outage instants" true (ups <= downs);
  check_bool "most outages repaired within horizon" true (ups > 0)

let test_compare_event_ties () =
  let a = down ~t:2. (Schedule.Link 0) in
  let b = up ~t:2. (Schedule.Link 1) in
  check_bool "repairs sort before failures at the same instant" true
    (Schedule.compare_event b a < 0);
  check_bool "ordering is total" true
    (Schedule.compare_event a a = 0
    && Schedule.compare_event a b = -Schedule.compare_event b a)

(* ------------------------------------------------------------------ *)
(* Health                                                              *)

let test_health_transitions () =
  let g = network 6 in
  let h = Health.create g in
  check_bool "starts healthy" false (Health.any_down h);
  let e = Schedule.Link 0 in
  check_bool "first failure transitions" true
    (Health.apply h (down ~t:1. e) = Health.Went_down);
  check_bool "now down" false (Health.link_up h 0);
  check_bool "second cause is silent" true
    (Health.apply h (down ~t:2. e) = Health.No_change);
  check_bool "first repair leaves it down" true
    (Health.apply h (up ~t:3. e) = Health.No_change);
  check_bool "still down" false (Health.element_up h e);
  check_bool "last repair transitions" true
    (Health.apply h (up ~t:5. e) = Health.Came_up);
  check_bool "healthy again" true (Health.link_up h 0 && not (Health.any_down h));
  check_bool "spurious repair clamped" true
    (Health.apply h (up ~t:6. e) = Health.No_change);
  check_bool "spurious repair did not corrupt the count" true
    (Health.apply h (down ~t:7. e) = Health.Went_down)

let test_health_down_lists_and_mttr () =
  let g = network 7 in
  let h = Health.create g in
  ignore (Health.apply h (down ~t:1. (Schedule.Switch 9)));
  ignore (Health.apply h (down ~t:1. (Schedule.Link 3)));
  ignore (Health.apply h (down ~t:2. (Schedule.Link 1)));
  Alcotest.(check (list int)) "down links ascend" [ 1; 3 ] (Health.down_links h);
  Alcotest.(check (list int)) "down switches" [ 9 ] (Health.down_switches h);
  check_int "no repairs yet" 0 (Health.repairs h);
  check_float "mttr defined as 0 before repairs" 0. (Health.observed_mttr h);
  ignore (Health.apply h (up ~t:4. (Schedule.Link 3)));
  ignore (Health.apply h (up ~t:7. (Schedule.Link 1)));
  check_int "two repairs" 2 (Health.repairs h);
  (* Spells: link 3 down 1→4 (3s), link 1 down 2→7 (5s). *)
  check_float "observed mttr" 4. (Health.observed_mttr h)

let test_health_exclusion_is_live () =
  let g, (u0, u1), (sa, _) = parallel_network () in
  let h = Health.create g in
  let ex = Health.exclusion h in
  check_bool "healthy switch passes" true (ex.Routing.vertex_ok sa);
  ignore (Health.apply h (down ~t:1. (Schedule.Switch sa)));
  check_bool "same closure sees the failure" false (ex.Routing.vertex_ok sa);
  let capacity = Capacity.of_graph g in
  (match
     Routing.best_channel ~exclude:ex g params ~capacity ~src:u0 ~dst:u1
   with
  | None -> Alcotest.fail "detour must route"
  | Some c ->
      check_bool "route avoids the failed switch" false
        (List.mem sa c.Channel.path);
      check_bool "dead_channel agrees" false (Health.dead_channel h g c.path));
  ignore (Health.apply h (up ~t:2. (Schedule.Switch sa)));
  check_bool "closure sees the repair too" true (ex.Routing.vertex_ok sa)

let test_health_tree_ok () =
  let g, (u0, u1), (sa, sb) = parallel_network () in
  let capacity = Capacity.of_graph g in
  let tree =
    match Multi_group.prim_for_users g params ~capacity ~users:[ u0; u1 ] with
    | Some t -> t
    | None -> Alcotest.fail "pair must route"
  in
  let used_switch =
    match (List.hd tree.Ent_tree.channels).Channel.path with
    | [ _; s; _ ] -> s
    | _ -> Alcotest.fail "expected a 2-hop channel"
  in
  let other = if used_switch = sa then sb else sa in
  let h = Health.create g in
  check_bool "healthy tree ok" true (Health.tree_ok h g tree);
  ignore (Health.apply h (down (Schedule.Switch other)));
  check_bool "unrelated failure leaves tree ok" true (Health.tree_ok h g tree);
  ignore (Health.apply h (down (Schedule.Switch used_switch)));
  check_bool "tree dies with its switch" false (Health.tree_ok h g tree)

(* ------------------------------------------------------------------ *)
(* Engine recovery policies (explicit schedules pin fault instants)    *)

let run_with ~recovery g reqs schedule =
  let config = Engine.config ~recovery Policy.prim in
  Engine.run ~config ~fault_schedule:schedule g params ~requests:reqs

let test_abort_interrupts () =
  let g, (a0, a1), hub = hub_network () in
  let reqs = [ request ~duration:4. 0 [ a0; a1 ] 0. ] in
  let report, outcomes =
    run_with ~recovery:Engine.Abort g reqs [ down ~t:1. (Schedule.Switch hub) ]
  in
  check_int "nothing served" 0 report.Engine.served;
  check_int "one fault injected" 1 report.Engine.faults_injected;
  check_int "one interruption" 1 report.Engine.leases_interrupted;
  check_int "aborted" 1 report.Engine.leases_aborted;
  check_int "none recovered" 0 report.Engine.leases_recovered;
  check_float "lost service = unserved remainder" 3.
    report.Engine.mean_lost_service;
  match outcomes with
  | [ { Engine.resolution = Engine.Interrupted { start; at; recoveries; _ }; _ } ]
    ->
      check_float "had started at arrival" 0. start;
      check_float "cut at the fault instant" 1. at;
      check_int "no recoveries under abort" 0 recoveries
  | _ -> Alcotest.fail "expected one interrupted outcome"

let test_repair_fallback_aborts_when_no_detour () =
  (* The hub is the only connectivity: Repair must fall back to abort. *)
  let g, (a0, a1), hub = hub_network () in
  let reqs = [ request ~duration:4. 0 [ a0; a1 ] 0. ] in
  let report, _ =
    run_with ~recovery:Engine.Repair g reqs [ down ~t:1. (Schedule.Switch hub) ]
  in
  check_int "aborted despite repair policy" 1 report.Engine.leases_aborted;
  check_int "not recovered" 0 report.Engine.leases_recovered

let interior_switch (tree : Ent_tree.t) =
  match (List.hd tree.Ent_tree.channels).Channel.path with
  | [ _; s; _ ] -> s
  | _ -> Alcotest.fail "expected a 2-hop channel"

let test_repair_survives_with_detour () =
  let g, (u0, u1), (sa, sb) = parallel_network () in
  let reqs = [ request ~duration:4. 0 [ u0; u1 ] 0. ] in
  (* Learn which switch the policy picks, then kill exactly it. *)
  let _, outcomes = run_with ~recovery:Engine.Repair g reqs [] in
  let used =
    match outcomes with
    | [ { Engine.resolution = Engine.Served { tree; _ }; _ } ] ->
        interior_switch tree
    | _ -> Alcotest.fail "baseline run must serve"
  in
  let incidents = ref [] in
  let config = Engine.config ~recovery:Engine.Repair Policy.prim in
  let report, outcomes =
    Engine.run ~config
      ~fault_schedule:[ down ~t:1. (Schedule.Switch used) ]
      ~on_incident:(fun i -> incidents := i :: !incidents)
      g params ~requests:reqs
  in
  check_int "served despite the fault" 1 report.Engine.served;
  check_int "one interruption" 1 report.Engine.leases_interrupted;
  check_int "recovered" 1 report.Engine.leases_recovered;
  check_int "no aborts" 0 report.Engine.leases_aborted;
  (match outcomes with
  | [ { Engine.resolution = Engine.Served { tree; recoveries; _ }; _ } ] ->
      check_int "one recovery recorded on the outcome" 1 recoveries;
      check_int "final tree took the detour"
        (if used = sa then sb else sa)
        (interior_switch tree)
  | _ -> Alcotest.fail "expected a served outcome");
  match !incidents with
  | [ { Engine.element = Schedule.Switch s; before; after = Some t; _ } ] ->
      check_int "incident names the failed switch" used s;
      check_int "incident.before used it" used (interior_switch before);
      check_bool "incident.after avoids it" true (interior_switch t <> used)
  | _ -> Alcotest.fail "expected exactly one recovered incident"

let test_reroute_survives_with_detour () =
  let g, (u0, u1), _ = parallel_network () in
  let reqs = [ request ~duration:4. 0 [ u0; u1 ] 0. ] in
  let _, outcomes = run_with ~recovery:Engine.Reroute g reqs [] in
  let used =
    match outcomes with
    | [ { Engine.resolution = Engine.Served { tree; _ }; _ } ] ->
        interior_switch tree
    | _ -> Alcotest.fail "baseline run must serve"
  in
  let report, outcomes =
    run_with ~recovery:Engine.Reroute g reqs
      [ down ~t:1. (Schedule.Switch used) ]
  in
  check_int "served despite the fault" 1 report.Engine.served;
  check_int "recovered" 1 report.Engine.leases_recovered;
  match outcomes with
  | [ { Engine.resolution = Engine.Served { tree; _ }; _ } ] ->
      check_bool "rerouted off the failed switch" true
        (interior_switch tree <> used)
  | _ -> Alcotest.fail "expected a served outcome"

let test_unrelated_fault_harmless () =
  let g, (u0, u1), (sa, sb) = parallel_network () in
  let reqs = [ request ~duration:4. 0 [ u0; u1 ] 0. ] in
  let _, outcomes = run_with ~recovery:Engine.Abort g reqs [] in
  let used =
    match outcomes with
    | [ { Engine.resolution = Engine.Served { tree; _ }; _ } ] ->
        interior_switch tree
    | _ -> Alcotest.fail "baseline run must serve"
  in
  let idle = if used = sa then sb else sa in
  let report, _ =
    run_with ~recovery:Engine.Abort g reqs [ down ~t:1. (Schedule.Switch idle) ]
  in
  check_int "fault landed" 1 report.Engine.faults_injected;
  check_int "no lease touched" 0 report.Engine.leases_interrupted;
  check_int "still served" 1 report.Engine.served

let test_repair_unblocks_queued_request () =
  (* The hub is down at arrival; the queued request is admitted by the
     rescan the repair triggers, before any backoff timer fires. *)
  let g, (a0, a1), hub = hub_network () in
  let reqs = [ request ~duration:2. ~patience:10. 0 [ a0; a1 ] 0.5 ] in
  let schedule =
    [ down ~t:0. (Schedule.Switch hub); up ~t:3. (Schedule.Switch hub) ]
  in
  let report, outcomes = run_with ~recovery:Engine.Repair g reqs schedule in
  check_int "served after the repair" 1 report.Engine.served;
  check_int "repair counted" 1 report.Engine.faults_repaired;
  check_float "observed mttr" 3. report.Engine.mean_time_to_repair;
  match outcomes with
  | [ { Engine.resolution = Engine.Served { start; _ }; _ } ] ->
      check_float "admitted exactly at the repair instant" 3. start
  | _ -> Alcotest.fail "expected a served outcome"

let test_schedule_validation () =
  let g, (a0, a1), _ = hub_network () in
  let reqs = [ request 0 [ a0; a1 ] 0. ] in
  let bad label schedule msg =
    Alcotest.check_raises label (Invalid_argument msg) (fun () ->
        ignore (Engine.run ~fault_schedule:schedule g params ~requests:reqs))
  in
  bad "negative time"
    [ down ~t:(-1.) (Schedule.Link 0) ]
    "Engine.run: fault event with bad timestamp";
  bad "unknown edge"
    [ down (Schedule.Link 999) ]
    "Engine.run: fault event on unknown edge";
  bad "unknown vertex"
    [ down (Schedule.Switch 999) ]
    "Engine.run: fault event on unknown vertex"

(* ------------------------------------------------------------------ *)
(* Determinism and report guards                                       *)

let chaos_run () =
  let g = network ~qubits:2 11 in
  let spec =
    Workload.spec ~requests:40 ~arrivals:(Workload.Poisson 1.5)
      ~patience:(0., 6.) ()
  in
  let reqs = Workload.generate (Prng.create 21) g spec in
  let faults = Model.make ~mtbf:25. ~mttr:4. ~seed:5 () in
  let config = Engine.config ~recovery:Engine.Repair Policy.prim in
  Engine.run ~config ~faults g params ~requests:reqs

let test_chaos_deterministic () =
  let r1, o1 = chaos_run () in
  let r2, o2 = chaos_run () in
  check_bool "identical reports across runs" true (r1 = r2);
  check_bool "identical outcomes across runs" true (o1 = o2);
  check_bool "faults actually fired" true (r1.Engine.faults_injected > 0)

let assert_no_nan (r : Engine.report) =
  List.iter
    (fun (name, v) ->
      check_bool (name ^ " is finite") true (Float.is_finite v))
    [
      ("acceptance_ratio", r.Engine.acceptance_ratio);
      ("mean_wait", r.Engine.mean_wait);
      ("p95_wait", r.Engine.p95_wait);
      ("mean_rate", r.Engine.mean_rate);
      ("throughput", r.Engine.throughput);
      ("makespan", r.Engine.makespan);
      ("mean_utilization", r.Engine.mean_utilization);
      ("mean_time_to_repair", r.Engine.mean_time_to_repair);
      ("mean_lost_service", r.Engine.mean_lost_service);
    ]

let test_empty_workload_report () =
  let g, _, hub = hub_network () in
  let faults = Model.make ~mtbf:5. ~mttr:1. ~seed:3 () in
  let report, outcomes = Engine.run ~faults g params ~requests:[] in
  check_int "no outcomes" 0 (List.length outcomes);
  check_int "nothing arrived" 0 report.Engine.arrived;
  check_float "acceptance 0" 0. report.Engine.acceptance_ratio;
  check_float "mean_wait 0" 0. report.Engine.mean_wait;
  check_float "p95 0" 0. report.Engine.p95_wait;
  assert_no_nan report;
  (* Same with an explicit schedule: churn with no workload is inert. *)
  let report, _ =
    Engine.run
      ~fault_schedule:
        [ down ~t:1. (Schedule.Switch hub); up ~t:2. (Schedule.Switch hub) ]
      g params ~requests:[]
  in
  check_float "no-op churn leaves makespan 0" 0. report.Engine.makespan;
  assert_no_nan report

let test_all_faulted_report () =
  (* Every lease is cut down; served stays 0 and every mean field must
     still be a number. *)
  let g, (a0, a1), hub = hub_network () in
  let reqs =
    [ request ~duration:4. 0 [ a0; a1 ] 0.; request ~duration:4. 1 [ a0; a1 ] 10. ]
  in
  let schedule =
    [
      down ~t:1. (Schedule.Switch hub);
      up ~t:2. (Schedule.Switch hub);
      down ~t:11. (Schedule.Switch hub);
    ]
  in
  let report, outcomes = run_with ~recovery:Engine.Abort g reqs schedule in
  check_int "nothing served" 0 report.Engine.served;
  check_int "both aborted" 2 report.Engine.leases_aborted;
  check_float "acceptance 0" 0. report.Engine.acceptance_ratio;
  check_float "mean_rate 0" 0. report.Engine.mean_rate;
  assert_no_nan report;
  check_int "conservation with interruptions" 2
    (List.length
       (List.filter
          (fun o ->
            match o.Engine.resolution with
            | Engine.Interrupted _ -> true
            | _ -> false)
          outcomes))

let () =
  Alcotest.run "faults"
    [
      ( "model",
        [
          Alcotest.test_case "validation" `Quick test_model_validation;
          Alcotest.test_case "target strings" `Quick test_target_strings;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "deterministic" `Quick test_schedule_deterministic;
          Alcotest.test_case "disabled/empty" `Quick
            test_schedule_disabled_or_empty;
          Alcotest.test_case "alternation" `Quick test_schedule_alternation;
          Alcotest.test_case "targets" `Quick test_schedule_targets;
          Alcotest.test_case "regional correlation" `Quick
            test_schedule_regional_correlation;
          Alcotest.test_case "event order" `Quick test_compare_event_ties;
        ] );
      ( "health",
        [
          Alcotest.test_case "transitions" `Quick test_health_transitions;
          Alcotest.test_case "down lists + mttr" `Quick
            test_health_down_lists_and_mttr;
          Alcotest.test_case "live exclusion" `Quick
            test_health_exclusion_is_live;
          Alcotest.test_case "tree_ok" `Quick test_health_tree_ok;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "abort interrupts" `Quick test_abort_interrupts;
          Alcotest.test_case "repair falls back" `Quick
            test_repair_fallback_aborts_when_no_detour;
          Alcotest.test_case "repair survives" `Quick
            test_repair_survives_with_detour;
          Alcotest.test_case "reroute survives" `Quick
            test_reroute_survives_with_detour;
          Alcotest.test_case "unrelated fault" `Quick
            test_unrelated_fault_harmless;
          Alcotest.test_case "repair unblocks queue" `Quick
            test_repair_unblocks_queued_request;
          Alcotest.test_case "schedule validation" `Quick
            test_schedule_validation;
        ] );
      ( "reports",
        [
          Alcotest.test_case "chaos determinism" `Slow
            test_chaos_deterministic;
          Alcotest.test_case "empty workload" `Quick test_empty_workload_report;
          Alcotest.test_case "all faulted" `Quick test_all_faulted_report;
        ] );
    ]
