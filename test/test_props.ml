(* Property-based tests (QCheck) over randomly generated networks: the
   cross-cutting invariants of the whole library. *)

module Graph = Qnet_graph.Graph
module Prng = Qnet_util.Prng
open Qnet_core

let params = Params.default

(* Arbitrary: a connected random quantum network described by a seed and
   small size knobs, so shrinking stays meaningful. *)
type net_case = {
  seed : int;
  users : int;
  switches : int;
  qubits : int;
  gen : int;  (* 0 = waxman, 1 = watts-strogatz, 2 = volchenkov *)
}

let net_gen =
  QCheck.Gen.(
    let* seed = int_range 1 10_000 in
    let* users = int_range 2 8 in
    let* switches = int_range 4 24 in
    let* qubits = int_range 2 10 in
    let* gen = int_range 0 2 in
    return { seed; users; switches; qubits; gen })

let net_print c =
  Printf.sprintf "{seed=%d; users=%d; switches=%d; qubits=%d; gen=%d}" c.seed
    c.users c.switches c.qubits c.gen

let net_arb = QCheck.make ~print:net_print net_gen

let build c =
  let spec =
    Qnet_topology.Spec.create ~n_users:c.users ~n_switches:c.switches
      ~qubits_per_switch:c.qubits ()
  in
  let kind =
    match c.gen with
    | 0 -> Qnet_topology.Generate.waxman
    | 1 -> Qnet_topology.Generate.watts_strogatz
    | _ -> Qnet_topology.Generate.volchenkov
  in
  Qnet_topology.Generate.run kind (Prng.create c.seed) spec

let solvers =
  [
    ("alg3", fun g -> Alg_conflict_free.solve g params);
    ("alg4", fun g -> Alg_prim.solve g params);
    ("eqcast", fun g -> Qnet_baselines.Eqcast.solve g params);
  ]

(* 1. Every capacity-respecting solver's output passes the independent
   verifier. *)
let prop_solutions_verify =
  QCheck.Test.make ~name:"solver outputs pass Verify.check" ~count:120 net_arb
    (fun c ->
      let g = build c in
      List.for_all
        (fun (_, solve) ->
          match solve g with
          | None -> true
          | Some tree -> Verify.is_valid g params ~users:(Graph.users g) tree)
        solvers)

(* 2. Rates always lie in [0, 1]. *)
let prop_rates_in_unit_interval =
  QCheck.Test.make ~name:"rates lie in [0, 1]" ~count:120 net_arb (fun c ->
      let g = build c in
      List.for_all
        (fun (_, solve) ->
          match solve g with
          | None -> true
          | Some tree ->
              let r = Ent_tree.rate_prob tree in
              r >= 0. && r <= 1.)
        solvers)

(* 3. A solution has exactly |U| - 1 channels. *)
let prop_tree_size =
  QCheck.Test.make ~name:"trees have |U|-1 channels" ~count:120 net_arb
    (fun c ->
      let g = build c in
      List.for_all
        (fun (_, solve) ->
          match solve g with
          | None -> true
          | Some tree ->
              Ent_tree.channel_count tree = Graph.user_count g - 1)
        solvers)

(* 4. Under the sufficient condition, Algorithm 2 solves, its output is
   capacity-valid, and no heuristic beats it. *)
let prop_alg2_optimal_under_condition =
  QCheck.Test.make ~name:"alg2 dominates under sufficient condition"
    ~count:100 net_arb (fun c ->
      let c = { c with qubits = 2 * c.users } in
      let g = build c in
      match Alg_optimal.solve g params with
      | None -> false (* sufficient condition + connected -> solvable *)
      | Some t2 ->
          Verify.is_valid g params ~users:(Graph.users g) t2
          && List.for_all
               (fun (_, solve) ->
                 match solve g with
                 | None -> true
                 | Some t ->
                     Ent_tree.rate_neg_log t
                     >= Ent_tree.rate_neg_log t2 -. 1e-9)
               solvers)

(* Theorem 3, as a property: under the sufficient capacity condition
   [Q_r >= 2|U|], Algorithm 2 is optimal — on tiny instances it reaches
   the exhaustive optimum's rate, and the two agree on feasibility.
   The exact solver may use every simple path (hop bound = |V| - 1),
   so a long optimal channel is never ruled out. *)
let tiny_arb =
  QCheck.make ~print:net_print
    QCheck.Gen.(
      let* seed = int_range 1 10_000 in
      let* users = int_range 2 4 in
      let* switches = int_range 2 8 in
      let* gen = int_range 0 2 in
      return { seed; users; switches; qubits = 2 * users; gen })

let prop_theorem3_alg2_exact =
  QCheck.Test.make ~name:"theorem 3: alg2 = exact optimum" ~count:150
    tiny_arb (fun c ->
      let g = build c in
      let bounds =
        { Exact.default_bounds with max_path_hops = Graph.vertex_count g - 1 }
      in
      Alg_optimal.sufficient_condition g
      &&
      match (Alg_optimal.solve g params, Exact.solve ~bounds g params) with
      | Some t2, Some te ->
          Float.abs (Ent_tree.rate_neg_log t2 -. Ent_tree.rate_neg_log te)
          <= 1e-9
      | None, None -> true
      | Some _, None | None, Some _ -> false)

(* 5. Algorithm 1's channel between a fixed pair never improves when
   capacity shrinks (monotonicity). *)
let prop_routing_monotone_in_capacity =
  QCheck.Test.make ~name:"best channel monotone in switch capacity" ~count:80
    net_arb (fun c ->
      let g = build c in
      let users = Graph.users g in
      match users with
      | u0 :: u1 :: _ ->
          let rate qubits =
            let g' =
              Graph.with_qubits g (fun v ->
                  match v.Graph.kind with
                  | Graph.User -> v.Graph.qubits
                  | Graph.Switch -> qubits)
            in
            let capacity = Capacity.of_graph g' in
            match Routing.best_channel g' params ~capacity ~src:u0 ~dst:u1 with
            | None -> 0.
            | Some ch -> Channel.rate_prob ch
          in
          rate 8 >= rate 2 -. 1e-12
      | _ -> true)

(* 6. The Monte-Carlo estimator brackets the analytic rate (statistical,
   but with 50k trials and a 95% CI the flake rate is ~5%; we accept a
   generous tolerance instead of the CI to keep it deterministic). *)
let prop_monte_carlo_close =
  QCheck.Test.make ~name:"Monte-Carlo tracks Eq. (2)" ~count:12 net_arb
    (fun c ->
      let g = build c in
      match Alg_conflict_free.solve g params with
      | None -> true
      | Some tree ->
          let p = Ent_tree.rate_prob tree in
          if p < 1e-3 then true (* too rare to sample cheaply *)
          else begin
            let est =
              Qnet_sim.Monte_carlo.estimate_rate
                (Prng.create (c.seed + 77))
                g params tree ~trials:50_000
            in
            Float.abs (est.Qnet_sim.Monte_carlo.p_hat -. p)
            < 0.05 +. (0.2 *. p)
          end)

(* 7. Qubit usage accounted by Ent_tree matches a recount from channel
   interiors. *)
let prop_qubit_usage_consistent =
  QCheck.Test.make ~name:"qubit usage equals interior recount" ~count:100
    net_arb (fun c ->
      let g = build c in
      match Alg_prim.solve g params with
      | None -> true
      | Some tree ->
          let recount = Hashtbl.create 16 in
          List.iter
            (fun ch ->
              List.iter
                (fun s ->
                  Hashtbl.replace recount s
                    (2 + (try Hashtbl.find recount s with Not_found -> 0)))
                (Channel.interior_switches ch))
            tree.Ent_tree.channels;
          List.for_all
            (fun (s, n) -> (try Hashtbl.find recount s with Not_found -> 0) = n)
            (Ent_tree.qubit_usage tree)
          && Hashtbl.length recount
             = List.length (Ent_tree.qubit_usage tree))

(* 8. Channel construction round-trips through make for every channel in
   every produced solution (stored rates match Eq. (1)). *)
let prop_channels_roundtrip =
  QCheck.Test.make ~name:"channels round-trip through Channel.make"
    ~count:100 net_arb (fun c ->
      let g = build c in
      match Alg_conflict_free.solve g params with
      | None -> true
      | Some tree ->
          List.for_all
            (fun (ch : Channel.t) ->
              match Channel.make g params ch.Channel.path with
              | Error _ -> false
              | Ok rebuilt ->
                  Float.abs
                    (Channel.rate_prob rebuilt -. Channel.rate_prob ch)
                  < 1e-12)
            tree.Ent_tree.channels)

(* 9. Removing edges never increases Algorithm 2's rate beyond
   tolerance... it CAN increase heuristics' rates (the paper's Fig. 7b
   observation 3), but Algorithm 2 with ample capacity is a maximum
   spanning structure: fewer edges can only hurt it. *)
let prop_alg2_monotone_under_edge_removal =
  QCheck.Test.make ~name:"alg2 rate monotone under edge removal" ~count:60
    net_arb (fun c ->
      let c = { c with qubits = 2 * c.users } in
      let g = build c in
      let rate g =
        match Alg_optimal.solve g params with
        | None -> 0.
        | Some t -> Ent_tree.rate_prob t
      in
      let r0 = rate g in
      (* Remove one arbitrary (seed-chosen) edge. *)
      let rng = Prng.create (c.seed * 13) in
      let doomed = Prng.int rng (Graph.edge_count g) in
      let g' = Graph.remove_edges g [ doomed ] in
      rate g' <= r0 +. 1e-12)

(* 10. The PRNG-seeded pipeline is fully deterministic end-to-end. *)
let prop_end_to_end_deterministic =
  QCheck.Test.make ~name:"pipeline deterministic per seed" ~count:40 net_arb
    (fun c ->
      let run () =
        let g = build c in
        List.map
          (fun (_, solve) ->
            match solve g with
            | None -> nan
            | Some t -> Ent_tree.rate_neg_log t)
          solvers
      in
      let a = run () and b = run () in
      List.for_all2
        (fun x y -> (Float.is_nan x && Float.is_nan y) || x = y)
        a b)

(* 11. Redundancy boosting never reduces the rate and never overcommits
   any switch. *)
let prop_redundancy_never_hurts =
  QCheck.Test.make ~name:"redundancy boost dominates its base tree"
    ~count:80 net_arb (fun c ->
      let g = build c in
      match Alg_conflict_free.solve g params with
      | None -> true
      | Some tree -> (
          let boosted = Redundancy.boost g params tree in
          boosted.Redundancy.rate >= Ent_tree.rate_prob tree -. 1e-15
          && List.for_all
               (fun (s, used) -> used <= Graph.qubits g s)
               (Redundancy.qubit_usage boosted)))

(* 12. Fidelity-constrained solutions always clear their threshold and
   never beat the unconstrained rate. *)
let prop_fidelity_solutions_meet_threshold =
  QCheck.Test.make ~name:"fidelity solver meets threshold, costs rate"
    ~count:60 net_arb (fun c ->
      let g = build c in
      let config = { Fidelity.f0 = 0.98; threshold = 0.93 } in
      match Fidelity.solve_kruskal g params config with
      | None -> true
      | Some tree ->
          Fidelity.tree_min_fidelity ~f0:config.Fidelity.f0 tree
          >= config.Fidelity.threshold
          && Verify.is_valid g params ~users:(Graph.users g) tree
          &&
          let unconstrained =
            match Alg_optimal.solve g params with
            | None -> infinity
            | Some t -> Ent_tree.rate_neg_log t
          in
          Ent_tree.rate_neg_log tree >= unconstrained -. 1e-9)

(* 13. Yen's k = 1 always agrees with Algorithm 1, and larger k yields
   weakly worse subsequent candidates. *)
let prop_multipath_consistent =
  QCheck.Test.make ~name:"k-best consistent with Algorithm 1" ~count:60
    net_arb (fun c ->
      let g = build c in
      let capacity = Capacity.of_graph g in
      match Graph.users g with
      | u0 :: u1 :: _ -> (
          let best = Routing.best_channel g params ~capacity ~src:u0 ~dst:u1 in
          let ks =
            Multipath.k_best_channels g params ~capacity ~src:u0 ~dst:u1 ~k:4
          in
          (match (best, ks) with
          | None, [] -> true
          | Some b, first :: _ ->
              Float.abs (Channel.rate_prob b -. Channel.rate_prob first)
              < 1e-12
          | _ -> false)
          &&
          let rec descending = function
            | [] | [ _ ] -> true
            | (a : Channel.t) :: ((b : Channel.t) :: _ as rest) ->
                Channel.rate_prob a >= Channel.rate_prob b -. 1e-15
                && descending rest
          in
          descending ks)
      | _ -> true)

(* 14. The online scheduler conserves requests and never leaks leases:
   after it finishes, every accepted tree respected capacity at its
   admission instant (checked internally), and accepted + rejected =
   arrived. *)
let prop_scheduler_conservation =
  QCheck.Test.make ~name:"scheduler conserves requests" ~count:40 net_arb
    (fun c ->
      let c = { c with users = max 4 c.users } in
      let g = build c in
      let rng = Prng.create (c.seed + 31) in
      let requests =
        Qnet_sim.Scheduler.random_requests rng g ~n:20 ~mean_gap:1.5
          ~max_group:(min 4 (Graph.user_count g))
          ~duration_range:(1, 5)
      in
      let stats, outcomes =
        Qnet_sim.Scheduler.run ~policy:(Qnet_sim.Scheduler.Queue 3) g params
          ~requests
      in
      stats.Qnet_sim.Scheduler.arrived = 20
      && List.length outcomes = 20
      && stats.Qnet_sim.Scheduler.accepted
         + stats.Qnet_sim.Scheduler.rejected
         = 20
      && List.for_all
           (fun (o : Qnet_sim.Scheduler.outcome) ->
             match o.Qnet_sim.Scheduler.disposition with
             | Qnet_sim.Scheduler.Accepted { tree; _ } ->
                 Ent_tree.spans_users tree
                   o.Qnet_sim.Scheduler.request.Qnet_sim.Scheduler.users
             | Qnet_sim.Scheduler.Rejected _ -> true)
           outcomes)

(* 15. Multi-group solutions never oversubscribe shared switches. *)
let prop_multi_group_shared_capacity =
  QCheck.Test.make ~name:"multi-group respects shared capacity" ~count:60
    net_arb (fun c ->
      let c = { c with users = max 4 c.users } in
      let g = build c in
      let users = Graph.users g in
      let rec pairs = function
        | a :: b :: rest -> [ a; b ] :: pairs rest
        | _ -> []
      in
      let groups = pairs users in
      if groups = [] then true
      else begin
        let r = Multi_group.solve g params ~groups in
        let usage = Hashtbl.create 16 in
        List.iter
          (fun (gr : Multi_group.group_result) ->
            match gr.Multi_group.tree with
            | None -> ()
            | Some tree ->
                List.iter
                  (fun (s, n) ->
                    Hashtbl.replace usage s
                      (n + (try Hashtbl.find usage s with Not_found -> 0)))
                  (Ent_tree.qubit_usage tree))
          r.Multi_group.groups;
        Hashtbl.fold
          (fun s n acc -> acc && n <= Graph.qubits g s)
          usage true
      end)

(* 16. Networks round-trip exactly through the s-expression codec. *)
let prop_codec_roundtrip =
  QCheck.Test.make ~name:"graph codec round-trips" ~count:60 net_arb (fun c ->
      let g = build c in
      match Qnet_graph.Codec.graph_of_sexp (Qnet_graph.Codec.graph_to_sexp g)
      with
      | Error _ -> false
      | Ok g' ->
          Graph.vertex_count g = Graph.vertex_count g'
          && Graph.edge_count g = Graph.edge_count g'
          && List.for_all
               (fun i ->
                 let v = Graph.vertex g i and v' = Graph.vertex g' i in
                 v.Graph.kind = v'.Graph.kind
                 && v.Graph.qubits = v'.Graph.qubits
                 && v.Graph.x = v'.Graph.x && v.Graph.y = v'.Graph.y)
               (List.init (Graph.vertex_count g) (fun i -> i))
          && List.for_all
               (fun i ->
                 let e = Graph.edge g i and e' = Graph.edge g' i in
                 e.Graph.a = e'.Graph.a && e.Graph.b = e'.Graph.b
                 && e.Graph.length = e'.Graph.length)
               (List.init (Graph.edge_count g) (fun i -> i)))

(* 17. Dijkstra agrees with Bellman-Ford-style relaxation on random
   networks (same weights, full admission). *)
let prop_dijkstra_matches_bellman_ford =
  QCheck.Test.make ~name:"dijkstra matches bellman-ford" ~count:40 net_arb
    (fun c ->
      let g = build c in
      let weight (e : Graph.edge) = e.Graph.length in
      let n = Graph.vertex_count g in
      let source = 0 in
      let d = Qnet_graph.Paths.dijkstra g ~source ~weight () in
      (* Bellman-Ford: n-1 relaxation sweeps over every edge. *)
      let bf = Array.make n infinity in
      bf.(source) <- 0.;
      for _ = 1 to n - 1 do
        Graph.iter_edges g (fun e ->
            let relax u v =
              if bf.(u) +. weight e < bf.(v) then bf.(v) <- bf.(u) +. weight e
            in
            relax e.Graph.a e.Graph.b;
            relax e.Graph.b e.Graph.a)
      done;
      let ok = ref true in
      for v = 0 to n - 1 do
        let dv = d.Qnet_graph.Paths.dist.(v) in
        if
          not
            ((dv = infinity && bf.(v) = infinity)
            || Float.abs (dv -. bf.(v)) <= 1e-6 *. (1. +. bf.(v)))
        then ok := false
      done;
      !ok)

let () =
  Alcotest.run "properties"
    [
      ( "invariants",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_solutions_verify;
            prop_rates_in_unit_interval;
            prop_tree_size;
            prop_alg2_optimal_under_condition;
            prop_theorem3_alg2_exact;
            prop_routing_monotone_in_capacity;
            prop_qubit_usage_consistent;
            prop_channels_roundtrip;
            prop_alg2_monotone_under_edge_removal;
            prop_end_to_end_deterministic;
          ] );
      ( "extensions",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_redundancy_never_hurts;
            prop_fidelity_solutions_meet_threshold;
            prop_multipath_consistent;
            prop_scheduler_conservation;
            prop_multi_group_shared_capacity;
            prop_codec_roundtrip;
            prop_dijkstra_matches_bellman_ford;
          ] );
      ( "statistical",
        List.map QCheck_alcotest.to_alcotest [ prop_monte_carlo_close ] );
    ]
