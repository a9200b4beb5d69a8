(* Tests for the hierarchical routing subsystem (Qnet_hier) and the
   continent-of-Waxmans scale generator: partition correctness, the
   feasibility-equivalence and rate properties of the channel oracle,
   Verify-clean tree construction without oversubscription, exclusion-
   driven cache invalidation, and engine determinism. *)

module Graph = Qnet_graph.Graph
module Paths = Qnet_graph.Paths
module Prng = Qnet_util.Prng
module Spec = Qnet_topology.Spec
module Waxman = Qnet_topology.Waxman
module Continent = Qnet_topology.Continent
module Partition = Qnet_hier.Partition
module Skeleton = Qnet_hier.Skeleton
module Oracle = Qnet_hier.Oracle
module Serve = Qnet_hier.Serve
module Workload = Qnet_online.Workload
module Engine = Qnet_online.Engine
module Policy = Qnet_online.Policy
module Fsched = Qnet_faults.Schedule
module Fhealth = Qnet_faults.Health
open Qnet_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let params = Params.default

let continent ?(regions = 4) ?(users = 12) ?(switches = 60) ?(qubits = 4) seed
    =
  let rng = Prng.create seed in
  let spec =
    Spec.create ~n_users:users ~n_switches:switches ~qubits_per_switch:qubits
      ()
  in
  Continent.generate_labeled
    ~params:{ Continent.default_params with regions }
    rng spec

let waxman ?(users = 8) ?(switches = 24) ?(qubits = 4) seed =
  let rng = Prng.create seed in
  let spec =
    Spec.create ~n_users:users ~n_switches:switches ~qubits_per_switch:qubits
      ()
  in
  Waxman.generate rng spec

(* ------------------------------------------------------------------ *)
(* Continent generator                                                 *)

let test_continent_shape () =
  let g, labels = continent ~regions:6 ~users:18 ~switches:90 3 in
  check_int "vertices" 108 (Graph.vertex_count g);
  check_int "users" 18 (Graph.user_count g);
  check_int "switches" 90 (Graph.switch_count g);
  check_int "labels arity" 108 (Array.length labels);
  Array.iter
    (fun r -> check_bool "label in range" true (r >= 0 && r < 6))
    labels;
  (* Every region is populated and holds at least one switch. *)
  let switches_per = Array.make 6 0 in
  Array.iteri
    (fun v r -> if Graph.is_switch g v then switches_per.(r) <- switches_per.(r) + 1)
    labels;
  Array.iter (fun c -> check_bool "switch per region" true (c >= 1)) switches_per;
  check_bool "connected" true (Paths.is_connected g);
  (* Cross-region fibers exist and land on switches. *)
  let cross = ref 0 in
  Graph.iter_edges g (fun e ->
      if labels.(e.Graph.a) <> labels.(e.Graph.b) then begin
        incr cross;
        check_bool "cross fiber joins switches" true
          (Graph.is_switch g e.Graph.a && Graph.is_switch g e.Graph.b)
      end);
  check_bool "has cross fibers" true (!cross >= 5)

let test_continent_deterministic () =
  let g1, l1 = continent ~regions:5 ~users:10 ~switches:50 11 in
  let g2, l2 = continent ~regions:5 ~users:10 ~switches:50 11 in
  check_bool "same labels" true (l1 = l2);
  check_int "same edges" (Graph.edge_count g1) (Graph.edge_count g2);
  let edges g =
    List.init (Graph.edge_count g) (fun i ->
        let e = Graph.edge g i in
        (e.Graph.a, e.Graph.b, e.Graph.length))
  in
  check_bool "same edge list" true (edges g1 = edges g2)

let test_continent_via_generate () =
  match Qnet_topology.Generate.of_name "continent" with
  | None -> Alcotest.fail "continent not registered"
  | Some kind ->
      let rng = Prng.create 5 in
      let spec = Spec.create ~n_users:8 ~n_switches:40 () in
      let g = Qnet_topology.Generate.run kind rng spec in
      check_int "vertices" 48 (Graph.vertex_count g);
      check_bool "connected" true (Paths.is_connected g)

let test_continent_rejects () =
  let rng = Prng.create 1 in
  let spec = Spec.create ~n_users:4 ~n_switches:3 () in
  Alcotest.check_raises "fewer switches than regions"
    (Invalid_argument "Continent.generate: need at least one switch per region")
    (fun () ->
      ignore
        (Continent.generate
           ~params:{ Continent.default_params with regions = 8 }
           rng spec))

(* ------------------------------------------------------------------ *)
(* Partition                                                           *)

let test_partition_of_assignment () =
  let g, labels = continent ~regions:4 7 in
  let part = Partition.of_assignment g labels in
  check_int "regions" 4 part.Partition.count;
  check_bool "labels preserved" true (part.Partition.region_of = labels);
  (* Gateways are exactly the switches with a cross-region edge. *)
  Array.iteri
    (fun v flagged ->
      let crosses = ref false in
      Graph.iter_adjacent g v (fun w _ ->
          if labels.(w) <> labels.(v) then crosses := true);
      let expect = Graph.is_switch g v && !crosses in
      check_bool "gateway iff border switch" expect flagged)
    part.Partition.is_gateway;
  let member_total =
    Array.fold_left (fun acc m -> acc + Array.length m) 0 part.Partition.members
  in
  check_int "members partition the graph" (Graph.vertex_count g) member_total

let test_partition_kmeans () =
  let g = waxman ~users:10 ~switches:50 9 in
  let p1 = Partition.kmeans ~regions:5 ~seed:3 g in
  let p2 = Partition.kmeans ~regions:5 ~seed:3 g in
  check_bool "deterministic" true
    (p1.Partition.region_of = p2.Partition.region_of);
  check_int "regions" 5 p1.Partition.count;
  Array.iter
    (fun members ->
      check_bool "no empty region" true (Array.length members > 0))
    p1.Partition.members;
  let p3 = Partition.kmeans ~regions:5 ~seed:4 g in
  check_bool "seed matters (labels may differ)" true
    (Array.length p3.Partition.region_of = Graph.vertex_count g)

let test_partition_rejects () =
  let g = waxman 2 in
  Alcotest.check_raises "arity"
    (Invalid_argument "Partition.of_assignment: label arity mismatch")
    (fun () -> ignore (Partition.of_assignment g [| 0 |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Partition.of_assignment: negative label") (fun () ->
      ignore
        (Partition.of_assignment g
           (Array.make (Graph.vertex_count g) (-1))))

(* ------------------------------------------------------------------ *)
(* Oracle vs flat routing                                              *)

let neg_log (c : Channel.t) = Qnet_util.Logprob.to_neg_log c.rate

(* The qcheck property at the heart of the subsystem: on any network
   small enough to solve flat, the oracle is feasibility-equivalent to
   Routing.best_channel, never better than the flat optimum, and exactly
   optimal whenever the flat winner stays inside one region.  The worst
   observed rate ratio is logged for the "within a logged ratio"
   half of the property. *)
let worst_ratio = ref 0. (* as neg-log delta: hier − flat *)

let prop_oracle_matches_flat =
  QCheck.Test.make ~name:"oracle feasibility-equivalent to flat" ~count:40
    QCheck.(pair (int_bound 1000) (int_range 2 4))
    (fun (seed, regions) ->
      let g, labels =
        continent ~regions ~users:8 ~switches:(12 * regions) ~qubits:4 seed
      in
      let part = Partition.of_assignment g labels in
      let oracle = Oracle.create g params part in
      let users = Graph.users g in
      let ok = ref true in
      List.iter
        (fun src ->
          List.iter
            (fun dst ->
              if src < dst then begin
                let cap_flat = Capacity.of_graph g in
                let cap_hier = Capacity.of_graph g in
                let flat =
                  Routing.best_channel g params ~capacity:cap_flat ~src ~dst
                in
                let hier =
                  Oracle.best_channel oracle ~capacity:cap_hier ~src ~dst
                in
                match (flat, hier) with
                | None, None -> ()
                | Some _, None | None, Some _ -> ok := false
                | Some f, Some h ->
                    let df = neg_log f and dh = neg_log h in
                    (* Flat is optimal: hier can never beat it. *)
                    if dh < df -. 1e-9 then ok := false;
                    (* When the flat optimum stays within one region the
                       corridor search must reproduce its rate. *)
                    let rf = labels.(List.hd f.Channel.path) in
                    if
                      List.for_all (fun v -> labels.(v) = rf) f.Channel.path
                      && Float.abs (dh -. df) > 1e-9
                    then ok := false;
                    if dh -. df > !worst_ratio then worst_ratio := dh -. df
              end)
            users)
        users;
      !ok)

let prop_oracle_kmeans_on_waxman =
  (* Same equivalence under a derived (k-means) partition of a flat
     Waxman network — the arbitrary-graph path. *)
  QCheck.Test.make ~name:"oracle with kmeans partition" ~count:25
    QCheck.(int_bound 1000)
    (fun seed ->
      let g = waxman ~users:6 ~switches:30 seed in
      let part = Partition.kmeans ~regions:3 ~seed g in
      let oracle = Oracle.create g params part in
      let users = Graph.users g in
      let ok = ref true in
      List.iter
        (fun src ->
          List.iter
            (fun dst ->
              if src < dst then begin
                let flat =
                  Routing.best_channel g params
                    ~capacity:(Capacity.of_graph g) ~src ~dst
                in
                let hier =
                  Oracle.best_channel oracle
                    ~capacity:(Capacity.of_graph g) ~src ~dst
                in
                match (flat, hier) with
                | None, None -> ()
                | Some _, None | None, Some _ -> ok := false
                | Some f, Some h ->
                    if neg_log h < neg_log f -. 1e-9 then ok := false
              end)
            users)
        users;
      !ok)

let prop_trees_verify_without_oversubscription =
  (* Route several disjoint groups hierarchically under one shared
     capacity: every produced tree passes Verify.check_exn and the
     shared capacity is never overcommitted. *)
  QCheck.Test.make ~name:"hier trees verify, no oversubscription" ~count:25
    QCheck.(int_bound 1000)
    (fun seed ->
      let g, labels =
        continent ~regions:3 ~users:12 ~switches:36 ~qubits:6 seed
      in
      let part = Partition.of_assignment g labels in
      let oracle = Oracle.create g params part in
      let users = Array.of_list (Graph.users g) in
      let groups =
        [
          [ users.(0); users.(1); users.(2); users.(3) ];
          [ users.(4); users.(5); users.(6) ];
          [ users.(7); users.(8) ];
        ]
      in
      let capacity = Capacity.of_graph g in
      List.iter
        (fun group ->
          match Oracle.route_users oracle ~capacity ~users:group with
          | None -> ()
          | Some tree -> Verify.check_exn g params ~users:group tree)
        groups;
      Capacity.overcommitted capacity = [])

let test_oracle_rejects () =
  let g, labels = continent 1 in
  let part = Partition.of_assignment g labels in
  let oracle = Oracle.create g params part in
  let sw = List.hd (Graph.switches g) in
  let u = List.hd (Graph.users g) in
  Alcotest.check_raises "non-user endpoint"
    (Invalid_argument "Oracle.best_channel: endpoint is not a quantum user")
    (fun () ->
      ignore
        (Oracle.best_channel oracle ~capacity:(Capacity.of_graph g) ~src:u
           ~dst:sw));
  Alcotest.check_raises "src = dst"
    (Invalid_argument "Oracle.best_channel: src = dst") (fun () ->
      ignore
        (Oracle.best_channel oracle ~capacity:(Capacity.of_graph g) ~src:u
           ~dst:u))

let test_oracle_respects_exclusion () =
  let g, labels = continent ~regions:4 ~users:10 ~switches:48 21 in
  let part = Partition.of_assignment g labels in
  let oracle = Oracle.create g params part in
  let users = Array.of_list (Graph.users g) in
  let src = users.(0) and dst = users.(Array.length users - 1) in
  match Oracle.best_channel oracle ~capacity:(Capacity.of_graph g) ~src ~dst with
  | None -> () (* nothing to exclude against on this seed *)
  | Some c ->
      (* Kill one interior switch of the found channel: the next answer
         must avoid it (or honestly fail). *)
      let interior =
        List.filter (fun v -> Graph.is_switch g v) c.Channel.path
      in
      let dead = List.hd interior in
      let exclude =
        {
          Routing.vertex_ok = (fun v -> v <> dead);
          edge_ok = (fun _ -> true);
        }
      in
      (match
         Oracle.best_channel ~exclude oracle ~capacity:(Capacity.of_graph g)
           ~src ~dst
       with
      | None -> ()
      | Some c' ->
          check_bool "avoids the dead switch" false
            (List.mem dead c'.Channel.path))

let test_skeleton_stats () =
  let g, labels = continent ~regions:4 ~users:10 ~switches:48 33 in
  let part = Partition.of_assignment g labels in
  let sk = Skeleton.create g params part in
  check_int "skeleton nodes = gateways" (Partition.gateway_count part)
    (Skeleton.node_count sk);
  check_bool "has inter edges" true (Skeleton.inter_edge_count sk > 0)

let test_eager_invalidation () =
  (* Health transitions wired through Serve.attach_health must drop the
     touched region's cached segments (observable via cache behaviour:
     a query after invalidation recomputes and still answers). *)
  let g, labels = continent ~regions:3 ~users:8 ~switches:36 5 in
  let part = Partition.of_assignment g labels in
  let oracle = Oracle.create g params part in
  let health = Fhealth.create g in
  Serve.attach_health oracle health;
  let users = Array.of_list (Graph.users g) in
  let src = users.(0) and dst = users.(Array.length users - 1) in
  let q () =
    Oracle.best_channel oracle ~exclude:(Fhealth.exclusion health)
      ~capacity:(Capacity.of_graph g) ~src ~dst
  in
  let before = q () in
  (* Fail a switch, query again (exclusion-aware), repair, re-query. *)
  let sw = List.hd (Graph.switches g) in
  ignore
    (Fhealth.apply health
       { Fsched.time = 1.; element = Fsched.Switch sw; up = false });
  let during = q () in
  (match during with
  | None -> ()
  | Some c -> check_bool "down switch avoided" false (List.mem sw c.Channel.path));
  ignore
    (Fhealth.apply health
       { Fsched.time = 2.; element = Fsched.Switch sw; up = true });
  let after = q () in
  match (before, after) with
  | Some b, Some a ->
      check_bool "same rate after repair" true
        (Float.abs (neg_log b -. neg_log a) < 1e-9)
  | None, None -> ()
  | _ -> Alcotest.fail "feasibility changed across a repaired fault"

(* ------------------------------------------------------------------ *)
(* Online integration & determinism                                    *)

let hier_policy g labels =
  let part = Partition.of_assignment g labels in
  Serve.policy (Oracle.create g params part)

let traffic_requests g seed n =
  let users = Array.of_list (Graph.users g) in
  let rng = Prng.create seed in
  List.init n (fun id ->
      let a = Prng.int rng (Array.length users) in
      let b = (a + 1 + Prng.int rng (Array.length users - 1))
              mod Array.length users in
      let arrival = float_of_int id *. 0.25 in
      {
        Workload.id;
        users = [ users.(a); users.(b) ];
        arrival;
        duration = 2.;
        deadline = arrival +. 1.5;
      })

let test_engine_serves_hierarchically () =
  let g, labels = continent ~regions:4 ~users:12 ~switches:60 42 in
  let config = Engine.config (hier_policy g labels) in
  let report, outcomes =
    Engine.run ~config g params ~requests:(traffic_requests g 42 40)
  in
  check_bool "served some" true (report.Engine.served > 0);
  check_int "all resolved" 40 (List.length outcomes)

let test_engine_determinism () =
  (* Same seed, two runs: identical hierarchical solves.  Fresh oracle
     per run so no cache state crosses runs. *)
  let g, labels = continent ~regions:4 ~users:12 ~switches:60 17 in
  let summary (o : Engine.outcome) =
    let id = o.Engine.request.Workload.id in
    match o.Engine.resolution with
    | Engine.Served { start; finish; rate; attempts; _ } ->
        (id, "served", start, finish, rate, attempts)
    | Engine.Rejected { at; _ } -> (id, "rejected", at, 0., 0., 0)
    | Engine.Shed { at; _ } -> (id, "shed", at, 0., 0., 0)
    | Engine.Expired { at; attempts } ->
        (id, "expired", at, 0., 0., attempts)
    | Engine.Interrupted { start; at; attempts; _ } ->
        (id, "interrupted", start, at, 0., attempts)
  in
  let run () =
    let config = Engine.config (hier_policy g labels) in
    let report, outcomes =
      Engine.run ~config g params ~requests:(traffic_requests g 17 60)
    in
    ( report.Engine.served,
      report.Engine.acceptance_ratio,
      report.Engine.mean_rate,
      List.map summary outcomes )
  in
  check_bool "identical across runs" true (run () = run ())

let test_engine_hier_under_faults () =
  let g, labels = continent ~regions:4 ~users:12 ~switches:60 23 in
  let part = Partition.of_assignment g labels in
  let oracle = Oracle.create g params part in
  let config = Engine.config (Serve.policy oracle) in
  let schedule =
    (* Deterministic down/up pulses on the first few switches. *)
    List.concat_map
      (fun (i, sw) ->
        [
          { Fsched.time = 1. +. float_of_int i; element = Fsched.Switch sw;
            up = false };
          { Fsched.time = 3. +. float_of_int i; element = Fsched.Switch sw;
            up = true };
        ])
      (List.filteri (fun i _ -> i < 3)
         (List.mapi (fun i s -> (i, s)) (Graph.switches g)))
  in
  let report, _ =
    Engine.run ~config ~fault_schedule:schedule
      ~on_health:(fun h -> Serve.attach_health oracle h)
      g params
      ~requests:(traffic_requests g 23 50)
  in
  check_bool "faults applied" true (report.Engine.faults_injected > 0);
  check_bool "still serves" true (report.Engine.served > 0)

let test_prim_oracle_seam_flat_identity () =
  (* Multi_group with the identity (flat) oracle must produce a tree of
     the same rate as the oracle-less path. *)
  let g = waxman ~users:6 ~switches:30 ~qubits:8 13 in
  let users = Graph.users g in
  let t1 =
    Multi_group.prim_for_users g params ~capacity:(Capacity.of_graph g) ~users
  in
  let t2 =
    Multi_group.prim_for_users
      ~oracle:(Routing.flat_oracle g params)
      g params ~capacity:(Capacity.of_graph g) ~users
  in
  match (t1, t2) with
  | None, None -> ()
  | Some a, Some b ->
      check_bool "same tree rate" true
        (Float.abs (Ent_tree.rate_neg_log a -. Ent_tree.rate_neg_log b)
        < 1e-9)
  | _ -> Alcotest.fail "oracle seam changed feasibility"

(* The "within a logged ratio" half of the ISSUE property: report the
   worst hier/flat rate ratio the property tests observed.  Runs after
   the properties section (alcotest executes sections in order). *)
let test_log_worst_ratio () =
  Printf.printf "hier worst rate ratio vs flat: exp(-%.4f) = %.4f\n%!"
    !worst_ratio
    (exp (-. !worst_ratio));
  check_bool "ratio is a sane probability factor" true
    (!worst_ratio >= 0. && Float.is_finite !worst_ratio)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_oracle_matches_flat;
        prop_oracle_kmeans_on_waxman;
        prop_trees_verify_without_oversubscription;
      ]
  in
  Alcotest.run "hier"
    [
      ( "continent",
        [
          Alcotest.test_case "shape" `Quick test_continent_shape;
          Alcotest.test_case "deterministic" `Quick
            test_continent_deterministic;
          Alcotest.test_case "via generate" `Quick test_continent_via_generate;
          Alcotest.test_case "rejects" `Quick test_continent_rejects;
        ] );
      ( "partition",
        [
          Alcotest.test_case "of_assignment" `Quick
            test_partition_of_assignment;
          Alcotest.test_case "kmeans" `Quick test_partition_kmeans;
          Alcotest.test_case "rejects" `Quick test_partition_rejects;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "rejects" `Quick test_oracle_rejects;
          Alcotest.test_case "exclusion" `Quick test_oracle_respects_exclusion;
          Alcotest.test_case "skeleton stats" `Quick test_skeleton_stats;
          Alcotest.test_case "eager invalidation" `Quick
            test_eager_invalidation;
          Alcotest.test_case "flat oracle seam" `Quick
            test_prim_oracle_seam_flat_identity;
        ] );
      ("properties", props);
      ( "summary",
        [ Alcotest.test_case "worst ratio logged" `Quick test_log_worst_ratio ]
      );
      ( "online",
        [
          Alcotest.test_case "engine serves" `Quick
            test_engine_serves_hierarchically;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "faults" `Quick test_engine_hier_under_faults;
        ] );
    ]
