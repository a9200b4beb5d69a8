(* Unit tests for Qnet_graph.Paths. *)

module Graph = Qnet_graph.Graph
module Paths = Qnet_graph.Paths

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let length_weight (e : Graph.edge) = e.Graph.length

(* Diamond:      1
              /     \
            0        3 --- 4
              \     /
                2            with 0-1-3 short and 0-2-3 long. *)
let diamond () =
  let b = Graph.Builder.create () in
  let add () = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:2 ~x:0. ~y:0. in
  let v0 = add () and v1 = add () and v2 = add () and v3 = add () in
  let v4 = add () in
  ignore (Graph.Builder.add_edge b v0 v1 1.);
  ignore (Graph.Builder.add_edge b v1 v3 1.);
  ignore (Graph.Builder.add_edge b v0 v2 5.);
  ignore (Graph.Builder.add_edge b v2 v3 5.);
  ignore (Graph.Builder.add_edge b v3 v4 2.);
  (Graph.Builder.freeze b, (v0, v1, v2, v3, v4))

let test_dijkstra_distances () =
  let g, (v0, v1, v2, v3, v4) = diamond () in
  let r = Paths.dijkstra g ~source:v0 ~weight:length_weight () in
  Alcotest.(check (float 1e-9)) "source" 0. r.Paths.dist.(v0);
  Alcotest.(check (float 1e-9)) "v1" 1. r.Paths.dist.(v1);
  Alcotest.(check (float 1e-9)) "v2 direct" 5. r.Paths.dist.(v2);
  Alcotest.(check (float 1e-9)) "v3 via v1" 2. r.Paths.dist.(v3);
  Alcotest.(check (float 1e-9)) "v4" 4. r.Paths.dist.(v4)

let test_extract_path () =
  let g, (v0, v1, _, v3, v4) = diamond () in
  let r = Paths.dijkstra g ~source:v0 ~weight:length_weight () in
  Alcotest.(check (option (list int)))
    "path to v4"
    (Some [ v0; v1; v3; v4 ])
    (Paths.extract_path r ~target:v4)

let test_admit_filter () =
  let g, (v0, v1, v2, v3, _) = diamond () in
  (* Block the short middle vertex: the long branch must be taken. *)
  let admit v = v <> v1 in
  let r = Paths.dijkstra g ~source:v0 ~weight:length_weight ~admit () in
  Alcotest.(check (float 1e-9)) "detour distance" 10. r.Paths.dist.(v3);
  check_bool "blocked vertex unreachable" true (r.Paths.dist.(v1) = infinity);
  Alcotest.(check (option (list int)))
    "detour path"
    (Some [ v0; v2; v3 ])
    (Paths.extract_path r ~target:v3)

let test_expand_filter () =
  let g, (v0, v1, v2, v3, v4) = diamond () in
  (* v1 and v2 may be entered but not relay: v3 becomes unreachable. *)
  let expand v = v <> v1 && v <> v2 in
  let r = Paths.dijkstra g ~source:v0 ~weight:length_weight ~expand () in
  Alcotest.(check (float 1e-9)) "enterable terminal" 1. r.Paths.dist.(v1);
  check_bool "beyond non-expandable unreachable" true
    (r.Paths.dist.(v3) = infinity);
  check_bool "v4 unreachable too" true (r.Paths.dist.(v4) = infinity)

let test_unreachable () =
  let b = Graph.Builder.create () in
  let v0 = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x:0. ~y:0. in
  let v1 = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x:1. ~y:0. in
  let g = Graph.Builder.freeze b in
  let r = Paths.dijkstra g ~source:v0 ~weight:length_weight () in
  check_bool "isolated unreachable" true (r.Paths.dist.(v1) = infinity);
  Alcotest.(check (option (list int)))
    "no path" None
    (Paths.extract_path r ~target:v1)

let test_negative_weight_rejected () =
  let g, (v0, _, _, _, _) = diamond () in
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Paths.dijkstra: negative edge weight") (fun () ->
      ignore (Paths.dijkstra g ~source:v0 ~weight:(fun _ -> -1.) ()))

let test_shortest_path_wrapper () =
  let g, (v0, v1, _, v3, _) = diamond () in
  match Paths.shortest_path g ~source:v0 ~target:v3 ~weight:length_weight () with
  | None -> Alcotest.fail "expected a path"
  | Some (path, w) ->
      Alcotest.(check (list int)) "path" [ v0; v1; v3 ] path;
      Alcotest.(check (float 1e-9)) "weight" 2. w

let test_bfs () =
  let g, (v0, v1, v2, v3, v4) = diamond () in
  let hops = Paths.bfs_hops g ~source:v0 in
  check_int "hop 0" 0 hops.(v0);
  check_int "hop 1" 1 hops.(v1);
  check_int "hop v2" 1 hops.(v2);
  check_int "hop v3" 2 hops.(v3);
  check_int "hop v4" 3 hops.(v4);
  let order = Paths.bfs_order g ~source:v0 in
  check_int "order covers all" 5 (List.length order);
  check_int "starts at source" v0 (List.hd order)

let test_components () =
  let b = Graph.Builder.create () in
  let add k = Graph.Builder.add_vertex b ~kind:k ~qubits:0 ~x:0. ~y:0. in
  let a0 = add Graph.User and a1 = add Graph.User in
  let b0 = add Graph.Switch and b1 = add Graph.User in
  ignore (Graph.Builder.add_edge b a0 a1 1.);
  ignore (Graph.Builder.add_edge b b0 b1 1.);
  let g = Graph.Builder.freeze b in
  Alcotest.(check (list (list int)))
    "two components"
    [ [ a0; a1 ]; [ b0; b1 ] ]
    (Paths.connected_components g);
  check_bool "not connected" false (Paths.is_connected g);
  check_bool "users split" false (Paths.users_connected g)

let test_users_connected_ignores_switch_islands () =
  let b = Graph.Builder.create () in
  let u0 = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x:0. ~y:0. in
  let u1 = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x:1. ~y:0. in
  ignore (Graph.Builder.add_vertex b ~kind:Graph.Switch ~qubits:2 ~x:9. ~y:9.);
  ignore (Graph.Builder.add_edge b u0 u1 1.);
  let g = Graph.Builder.freeze b in
  check_bool "graph not connected" false (Paths.is_connected g);
  check_bool "users still connected" true (Paths.users_connected g)

let test_path_validation () =
  let g, (v0, v1, v2, v3, _) = diamond () in
  check_bool "valid path" true (Paths.path_is_valid g [ v0; v1; v3 ]);
  check_bool "missing edge" false (Paths.path_is_valid g [ v0; v3 ]);
  check_bool "repeat vertex" false
    (Paths.path_is_valid g [ v0; v1; v3; v1 ]);
  check_bool "empty invalid" false (Paths.path_is_valid g []);
  check_bool "singleton valid" true (Paths.path_is_valid g [ v2 ])

let test_path_measures () =
  let g, (v0, v1, _, v3, v4) = diamond () in
  Alcotest.(check (float 1e-9))
    "length" 4.
    (Paths.path_length g [ v0; v1; v3; v4 ]);
  check_int "edge count" 3 (List.length (Paths.path_edges g [ v0; v1; v3; v4 ]));
  Alcotest.check_raises "non-adjacent"
    (Invalid_argument "Paths: consecutive vertices not adjacent") (fun () ->
      ignore (Paths.path_length g [ v0; v4 ]))

(* ?target is an early exit, not a different algorithm: the settled
   prefix — in particular the target itself — must agree with the full
   run for every choice of target. *)
let test_target_early_exit () =
  let g, (v0, _, _, _, _) = diamond () in
  let full = Paths.dijkstra g ~source:v0 ~weight:length_weight () in
  for t = 0 to Graph.vertex_count g - 1 do
    let r = Paths.dijkstra g ~source:v0 ~weight:length_weight ~targets:[ t ] () in
    Alcotest.(check (float 1e-12))
      (Printf.sprintf "dist to %d" t)
      full.Paths.dist.(t) r.Paths.dist.(t);
    Alcotest.(check (option (list int)))
      (Printf.sprintf "path to %d" t)
      (Paths.extract_path full ~target:t)
      (Paths.extract_path r ~target:t)
  done

let test_target_with_filters () =
  let g, (v0, v1, _, v3, _) = diamond () in
  let admit v = v <> v1 in
  let full = Paths.dijkstra g ~source:v0 ~weight:length_weight ~admit () in
  let r =
    Paths.dijkstra g ~source:v0 ~weight:length_weight ~admit ~targets:[ v3 ] ()
  in
  Alcotest.(check (float 1e-12))
    "detour distance with target" full.Paths.dist.(v3) r.Paths.dist.(v3);
  Alcotest.check_raises "bad target"
    (Invalid_argument "Paths.dijkstra: bad target") (fun () ->
      ignore (Paths.dijkstra g ~source:v0 ~weight:length_weight ~targets:[ 99 ] ()))

(* Random multi-source instances: a Waxman network, a random source set,
   random admission and expansion filters, and a random target set, all
   drawn from one seed. *)
type search_case = {
  g : Graph.t;
  sources : int list;
  admit : int -> bool;
  expand : int -> bool;
  targets : int list;
}

let search_case seed =
  let rng = Qnet_util.Prng.create seed in
  let spec =
    Qnet_topology.Spec.create
      ~n_users:(2 + Qnet_util.Prng.int rng 6)
      ~n_switches:(4 + Qnet_util.Prng.int rng 30)
      ~qubits_per_switch:4 ()
  in
  let g = Qnet_topology.Waxman.generate rng spec in
  let n = Graph.vertex_count g in
  let subset p = List.filter (fun _ -> Qnet_util.Prng.bernoulli rng p) in
  let all = List.init n Fun.id in
  let sources =
    match subset 0.2 all with [] -> [ Qnet_util.Prng.int rng n ] | l -> l
  in
  let blocked = Array.init n (fun _ -> Qnet_util.Prng.bernoulli rng 0.15) in
  let relay = Array.init n (fun _ -> Qnet_util.Prng.bernoulli rng 0.8) in
  {
    g;
    sources;
    admit = (fun v -> not blocked.(v));
    expand = Array.get relay;
    targets = subset 0.2 all;
  }

let multi_run ?targets c =
  Paths.dijkstra c.g ~source:(List.hd c.sources) ~sources:(List.tl c.sources)
    ~weight:length_weight ~admit:c.admit ~expand:c.expand ?targets ()

let seed_arb = QCheck.(make ~print:string_of_int Gen.(int_range 1 100_000))

(* ?sources is one search standing in for many: each vertex's distance
   is the minimum over the single-source runs, bit for bit. *)
let prop_sources_are_min_of_single_runs =
  QCheck.Test.make ~name:"multi-source dist = min of single-source runs"
    ~count:200 seed_arb (fun seed ->
      let c = search_case seed in
      let multi = multi_run c in
      let singles =
        List.map
          (fun source ->
            Paths.dijkstra c.g ~source ~weight:length_weight ~admit:c.admit
              ~expand:c.expand ())
          c.sources
      in
      List.for_all
        (fun v ->
          let best =
            List.fold_left
              (fun acc (r : Paths.dijkstra_result) -> Float.min acc r.dist.(v))
              infinity singles
          in
          Int64.equal (Int64.bits_of_float best)
            (Int64.bits_of_float multi.dist.(v)))
        (List.init (Graph.vertex_count c.g) Fun.id))

(* ?targets only stops the run early: every target keeps the distance and
   the path of the full run. *)
let prop_targets_match_full_run =
  QCheck.Test.make ~name:"targets keep the full run's dist and path"
    ~count:200 seed_arb (fun seed ->
      let c = search_case seed in
      let full = multi_run c and early = multi_run ~targets:c.targets c in
      List.for_all
        (fun t ->
          Int64.equal
            (Int64.bits_of_float full.dist.(t))
            (Int64.bits_of_float early.dist.(t))
          && Paths.extract_path full ~target:t
             = Paths.extract_path early ~target:t)
        c.targets)

(* A multi-source path starts at one of the sources and ends at the
   target; the sources themselves are their own one-vertex paths. *)
let test_multi_source_paths () =
  let g, (v0, v1, v2, v3, v4) = diamond () in
  let r =
    Paths.dijkstra g ~source:v2 ~sources:[ v4 ] ~weight:length_weight ()
  in
  Alcotest.(check (float 1e-12)) "v0 from v4" 4. r.Paths.dist.(v0);
  Alcotest.(check (option (list int)))
    "path to v0" (Some [ v4; v3; v1; v0 ])
    (Paths.extract_path r ~target:v0);
  Alcotest.(check (option (list int)))
    "a source" (Some [ v2 ])
    (Paths.extract_path r ~target:v2);
  Alcotest.check_raises "bad source"
    (Invalid_argument "Paths.dijkstra: bad source") (fun () ->
      ignore
        (Paths.dijkstra g ~source:v0 ~sources:[ 99 ] ~weight:length_weight ()))

let () =
  Alcotest.run "paths"
    [
      ( "dijkstra",
        [
          Alcotest.test_case "distances" `Quick test_dijkstra_distances;
          Alcotest.test_case "extract path" `Quick test_extract_path;
          Alcotest.test_case "admit filter" `Quick test_admit_filter;
          Alcotest.test_case "expand filter" `Quick test_expand_filter;
          Alcotest.test_case "unreachable" `Quick test_unreachable;
          Alcotest.test_case "negative weight" `Quick
            test_negative_weight_rejected;
          Alcotest.test_case "wrapper" `Quick test_shortest_path_wrapper;
          Alcotest.test_case "target early exit" `Quick test_target_early_exit;
          Alcotest.test_case "target with filters" `Quick
            test_target_with_filters;
          Alcotest.test_case "multi-source paths" `Quick
            test_multi_source_paths;
          QCheck_alcotest.to_alcotest prop_sources_are_min_of_single_runs;
          QCheck_alcotest.to_alcotest prop_targets_match_full_run;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs" `Quick test_bfs;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "user connectivity" `Quick
            test_users_connected_ignores_switch_islands;
        ] );
      ( "paths",
        [
          Alcotest.test_case "validation" `Quick test_path_validation;
          Alcotest.test_case "measures" `Quick test_path_measures;
        ] );
    ]
