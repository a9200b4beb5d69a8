(* Tests for the qnet_flow subsystem: LP bound dominance over every
   heuristic, rounding validity, the analytic flow ceiling, the
   admission gate, and the "flow" serving policy. *)

module Graph = Qnet_graph.Graph
module Prng = Qnet_util.Prng
module Flow = Qnet_flow
open Qnet_core

let check_bool = Alcotest.(check bool)
let params = Params.default

let network ?(users = 6) ?(switches = 24) ?(qubits = 4) seed =
  let rng = Prng.create seed in
  let spec =
    Qnet_topology.Spec.create ~n_users:users ~n_switches:switches
      ~qubits_per_switch:qubits ()
  in
  Qnet_topology.Waxman.generate rng spec

(* Every heuristic's (name, neg-log achieved, capacity-respecting) on a
   fresh full-capacity instance. *)
let heuristic_outcomes ?(seed = 7) g =
  let inst = Muerp.instance ~params g in
  let solver alg =
    let o = Muerp.solve ~rng:(Prng.create seed) alg inst in
    (Muerp.algorithm_name alg, o.Muerp.neg_log_rate,
     Muerp.outcome_capacity_ok inst o)
  in
  let eqcast =
    match Qnet_baselines.Eqcast.solve g params with
    | None -> ("e-q-cast", infinity, true)
    | Some t -> ("e-q-cast", Ent_tree.rate_neg_log t, true)
  in
  List.map solver Muerp.all_heuristics @ [ eqcast ]

let test_bound_dominates_small () =
  let g = network 3 in
  let users = Graph.users g in
  (match Flow.Lp.relax g params ~users with
  | Flow.Lp.Bound b ->
      List.iter
        (fun (name, neg_log, capacity_ok) ->
          if capacity_ok then
            check_bool
              (Printf.sprintf "capacity bound <= %s neg-log" name)
              true
              (b.Flow.Lp.neg_log <= neg_log))
        (heuristic_outcomes g)
  | _ -> Alcotest.fail "expected a bound on a connected network");
  match Flow.Lp.relax ~capacity_rows:false g params ~users with
  | Flow.Lp.Bound b ->
      (* The structure-only bound dominates everything, capacity
         respected or not (Algorithm 2 included). *)
      List.iter
        (fun (name, neg_log, _) ->
          check_bool
            (Printf.sprintf "structure bound <= %s neg-log" name)
            true
            (b.Flow.Lp.neg_log <= neg_log))
        (heuristic_outcomes g)
  | _ -> Alcotest.fail "expected a structure bound"

let test_structure_dominates_capacity () =
  let g = network 11 in
  let users = Graph.users g in
  match
    (Flow.Lp.relax ~capacity_rows:false g params ~users,
     Flow.Lp.relax g params ~users)
  with
  | Flow.Lp.Bound s, Flow.Lp.Bound c ->
      (* Extra rows can only push the minimum up: the capacity bound is
         the tighter (larger neg-log) of the two. *)
      check_bool "structure <= capacity neg-log" true
        (s.Flow.Lp.neg_log <= c.Flow.Lp.neg_log +. 1e-9)
  | _ -> Alcotest.fail "expected both bounds"

let test_rounding_valid () =
  let g = network 5 in
  let users = Graph.users g in
  match Flow.Lp.relax g params ~users with
  | Flow.Lp.Bound bound -> (
      let capacity = Capacity.of_graph g in
      match Flow.Rounding.round ~seed:42 g params ~capacity ~users ~bound with
      | Some tree ->
          (* check_exn raising would fail the test. *)
          Verify.check_exn ~context:"test rounding" g params ~users tree;
          check_bool "rounded rate within the bound" true
            (bound.Flow.Lp.neg_log <= Ent_tree.rate_neg_log tree)
      | None ->
          (* Rounding may honestly fail; it must then have consumed
             nothing. *)
          List.iter
            (fun s ->
              Alcotest.(check int)
                (Printf.sprintf "switch %d untouched" s)
                0 (Capacity.used capacity s))
            (Graph.switches g))
  | _ -> Alcotest.fail "expected a bound"

let test_rounding_deterministic () =
  let g = network 9 in
  let users = Graph.users g in
  match Flow.Lp.relax g params ~users with
  | Flow.Lp.Bound bound ->
      let run () =
        let capacity = Capacity.of_graph g in
        Flow.Rounding.round ~seed:123 g params ~capacity ~users ~bound
      in
      (match (run (), run ()) with
      | Some a, Some b ->
          check_bool "same tree both runs" true
            (List.for_all2 Channel.equal a.Ent_tree.channels
               b.Ent_tree.channels)
      | None, None -> ()
      | _ -> Alcotest.fail "rounding not deterministic")
  | _ -> Alcotest.fail "expected a bound"

let test_gate_sound () =
  let g = network 13 in
  let users = Graph.users g in
  (* Whenever any solver serves the group, the gate must not condemn
     it. *)
  let served =
    List.exists
      (fun (_, neg_log, _) -> Float.is_finite neg_log)
      (heuristic_outcomes g)
  in
  if served then
    check_bool "gate accepts a servable group" false
      (Flow.Gate.infeasible g ~users);
  (* And small groups are never condemned spuriously on a connected
     network while a full-blown solve succeeds. *)
  match users with
  | u :: v :: _ ->
      let pair = [ u; v ] in
      let cap = Capacity.of_graph g in
      (match Routing.best_channel g params ~capacity:cap ~src:u ~dst:v with
      | Some _ ->
          check_bool "gate accepts a routable pair" false
            (Flow.Gate.infeasible g ~users:pair)
      | None -> ())
  | _ -> Alcotest.fail "expected at least 2 users"

let test_gate_rejects_unreachable () =
  (* An isolated pair of users connected only through 1-qubit switches
     is provably unservable. *)
  let b = Graph.Builder.create () in
  let u1 = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:10 ~x:0. ~y:0. in
  let s = Graph.Builder.add_vertex b ~kind:Graph.Switch ~qubits:1 ~x:1. ~y:0. in
  let u2 = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:10 ~x:2. ~y:0. in
  ignore (Graph.Builder.add_edge b u1 s 10.);
  ignore (Graph.Builder.add_edge b s u2 10.);
  let g = Graph.Builder.freeze b in
  check_bool "1-qubit relay cannot serve" true
    (Flow.Gate.infeasible g ~users:[ u1; u2 ])

let test_ceiling_dominates_best_channel () =
  let g = network 17 in
  match Graph.users g with
  | u :: v :: _ ->
      let cap = Capacity.of_graph g in
      (match Routing.best_channel g params ~capacity:cap ~src:u ~dst:v with
      | Some ch ->
          let ceiling = Flow.Capacity_bound.pair_ceiling g params ~src:u ~dst:v in
          check_bool "flow ceiling >= best channel rate" true
            (ceiling +. 1e-12 >= Channel.rate_prob ch)
      | None -> ())
  | _ -> Alcotest.fail "expected users"

let test_policy_contract () =
  let g = network 23 in
  let policy = Flow.Serve.policy () in
  let users =
    match Graph.users g with a :: b :: c :: _ -> [ a; b; c ] | l -> l
  in
  let capacity = Capacity.of_graph g in
  (match
     Qnet_online.Policy.route policy g params ~capacity ~users
   with
  | Some tree ->
      Verify.check_exn ~context:"flow policy" g params ~users tree;
      (* Consumption happened: the tree's usage is reflected in the
         capacity state. *)
      List.iter
        (fun (s, q) ->
          check_bool "consumed" true (Capacity.used capacity s >= q))
        (Ent_tree.qubit_usage tree)
  | None ->
      List.iter
        (fun s -> Alcotest.(check int) "untouched" 0 (Capacity.used capacity s))
        (Graph.switches g));
  (* Registration: the roster resolves flow. *)
  Flow.Serve.register ();
  check_bool "of_name flow" true (Qnet_online.Policy.of_name "flow" <> None)

(* Property: on random connected instances the LP bounds dominate every
   heuristic (structure bound: all methods; capacity bound:
   capacity-respecting methods), and rounding output always verifies. *)
let prop_bound_dominates =
  QCheck.Test.make ~name:"LP bound dominates every heuristic" ~count:60
    QCheck.(make Gen.(int_range 1 100_000))
    (fun seed ->
      let g =
        network ~users:(2 + (seed mod 5)) ~switches:(8 + (seed mod 17)) seed
      in
      let users = Graph.users g in
      match
        (Flow.Lp.relax ~capacity_rows:false g params ~users,
         Flow.Lp.relax g params ~users)
      with
      | Flow.Lp.Bound s, Flow.Lp.Bound c ->
          let outcomes = heuristic_outcomes ~seed g in
          List.for_all
            (fun (_, neg_log, _) -> s.Flow.Lp.neg_log <= neg_log)
            outcomes
          && List.for_all
               (fun (_, neg_log, capacity_ok) ->
                 (not capacity_ok) || c.Flow.Lp.neg_log <= neg_log)
               outcomes
      | _ ->
          (* Group not connected in the eligible subgraph: then no
             solver may serve it either. *)
          List.for_all
            (fun (_, neg_log, capacity_ok) ->
              (not capacity_ok) || not (Float.is_finite neg_log))
            (heuristic_outcomes ~seed g))

let prop_rounding_verifies =
  QCheck.Test.make ~name:"rounding output passes Verify.check_exn" ~count:60
    QCheck.(make Gen.(int_range 1 100_000))
    (fun seed ->
      let g =
        network ~users:(2 + (seed mod 4)) ~switches:(8 + (seed mod 13)) seed
      in
      let users = Graph.users g in
      match Flow.Lp.relax g params ~users with
      | Flow.Lp.Bound bound -> (
          let capacity = Capacity.of_graph g in
          match
            Flow.Rounding.round ~seed g params ~capacity ~users ~bound
          with
          | Some tree ->
              Verify.check_exn ~context:"prop rounding" g params ~users tree;
              bound.Flow.Lp.neg_log <= Ent_tree.rate_neg_log tree
          | None -> true)
      | _ -> true)

let () =
  Alcotest.run "flow"
    [
      ( "bounds",
        [
          Alcotest.test_case "bound dominates heuristics" `Quick
            test_bound_dominates_small;
          Alcotest.test_case "structure <= capacity bound" `Quick
            test_structure_dominates_capacity;
          Alcotest.test_case "ceiling >= best channel" `Quick
            test_ceiling_dominates_best_channel;
        ] );
      ( "rounding",
        [
          Alcotest.test_case "valid + within bound" `Quick test_rounding_valid;
          Alcotest.test_case "deterministic" `Quick test_rounding_deterministic;
        ] );
      ( "gate",
        [
          Alcotest.test_case "sound on servable groups" `Quick test_gate_sound;
          Alcotest.test_case "rejects provably unservable" `Quick
            test_gate_rejects_unreachable;
        ] );
      ( "serve",
        [ Alcotest.test_case "policy contract" `Quick test_policy_contract ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_bound_dominates; prop_rounding_verifies ] );
    ]
