(* Unit tests for Qnet_core.Multi_group — concurrent entanglement
   groups. *)

module Graph = Qnet_graph.Graph
module Prng = Qnet_util.Prng
open Qnet_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let params = Params.default

let network ?(users = 9) ?(qubits = 4) seed =
  let rng = Prng.create seed in
  let spec =
    Qnet_topology.Spec.create ~n_users:users ~n_switches:30
      ~qubits_per_switch:qubits ()
  in
  Qnet_topology.Waxman.generate rng spec

let partition k users =
  let rec chunk = function
    | [] -> []
    | l ->
        let rec take n = function
          | [] -> ([], [])
          | x :: rest when n > 0 ->
              let a, b = take (n - 1) rest in
              (x :: a, b)
          | rest -> ([], rest)
        in
        let head, tail = take k l in
        head :: chunk tail
  in
  List.filter (fun c -> c <> []) (chunk users)

let test_validation () =
  let g = network 1 in
  Alcotest.check_raises "no groups"
    (Invalid_argument "Multi_group.solve: no groups") (fun () ->
      ignore (Multi_group.solve g params ~groups:[]));
  Alcotest.check_raises "empty group"
    (Invalid_argument "Multi_group.solve: empty group") (fun () ->
      ignore (Multi_group.solve g params ~groups:[ [] ]));
  let u = List.hd (Graph.users g) in
  Alcotest.check_raises "overlap"
    (Invalid_argument "Multi_group.solve: groups overlap") (fun () ->
      ignore (Multi_group.solve g params ~groups:[ [ u ]; [ u ] ]));
  let s = List.hd (Graph.switches g) in
  Alcotest.check_raises "switch member"
    (Invalid_argument "Multi_group.solve: group member is not a user")
    (fun () -> ignore (Multi_group.solve g params ~groups:[ [ s ] ]))

let check_result g (r : Multi_group.t) =
  (* Aggregate switch usage over all served groups respects budgets. *)
  let usage = Hashtbl.create 16 in
  List.iter
    (fun (gr : Multi_group.group_result) ->
      match gr.Multi_group.tree with
      | None -> ()
      | Some tree ->
          check_bool "group spanned" true
            (Ent_tree.spans_users tree gr.Multi_group.group);
          List.iter
            (fun (s, n) ->
              Hashtbl.replace usage s
                (n + (try Hashtbl.find usage s with Not_found -> 0)))
            (Ent_tree.qubit_usage tree))
    r.Multi_group.groups;
  Hashtbl.iter
    (fun s n ->
      check_bool
        (Printf.sprintf "shared capacity at switch %d" s)
        true
        (n <= Graph.qubits g s))
    usage

let test_sequential_valid () =
  for seed = 1 to 10 do
    let g = network seed in
    let groups = partition 3 (Graph.users g) in
    let r = Multi_group.solve ~strategy:Multi_group.Sequential g params ~groups in
    check_result g r;
    check_int "one result per group" (List.length groups)
      (List.length r.Multi_group.groups)
  done

let test_round_robin_valid () =
  for seed = 1 to 10 do
    let g = network seed in
    let groups = partition 3 (Graph.users g) in
    let r = Multi_group.solve ~strategy:Multi_group.Round_robin g params ~groups in
    check_result g r
  done

let test_single_group_matches_prim () =
  (* One group covering all users degenerates to Algorithm 4. *)
  let g = network 5 in
  let users = Graph.users g in
  let r = Multi_group.solve g params ~groups:[ users ] in
  let direct = Alg_prim.solve ~start:(List.hd users) g params in
  match (r.Multi_group.groups, direct) with
  | [ { Multi_group.tree = Some t1; _ } ], Some t2 ->
      Alcotest.(check (float 1e-9))
        "same rate as Algorithm 4"
        (Ent_tree.rate_neg_log t2) (Ent_tree.rate_neg_log t1)
  | [ { Multi_group.tree = None; _ } ], None -> ()
  | _ -> Alcotest.fail "disagreement with Algorithm 4"

let test_summary_fields () =
  let g = network 7 in
  let groups = partition 3 (Graph.users g) in
  let r = Multi_group.solve g params ~groups in
  let served_rates =
    List.filter_map
      (fun (gr : Multi_group.group_result) ->
        match gr.Multi_group.tree with None -> None | Some _ -> Some gr.Multi_group.rate)
      r.Multi_group.groups
  in
  let expected_min =
    List.fold_left Float.min
      (if List.length served_rates = List.length groups then 1. else 0.)
      (List.map
         (fun (gr : Multi_group.group_result) -> gr.Multi_group.rate)
         r.Multi_group.groups)
  in
  Alcotest.(check (float 1e-12)) "min rate" expected_min r.Multi_group.min_rate;
  check_bool "all_feasible consistent" true
    (r.Multi_group.all_feasible
    = List.for_all
        (fun (gr : Multi_group.group_result) -> gr.Multi_group.tree <> None)
        r.Multi_group.groups)

let test_capacity_contention () =
  (* Two pairs forced through the same 2-qubit hub: only one can be
     served. *)
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
  let g = Graph.Builder.freeze b in
  let r = Multi_group.solve g params ~groups:[ [ a0; a1 ]; [ b0; b1 ] ] in
  let served =
    List.length
      (List.filter
         (fun (gr : Multi_group.group_result) -> gr.Multi_group.tree <> None)
         r.Multi_group.groups)
  in
  check_int "exactly one group served" 1 served;
  check_bool "not all feasible" false r.Multi_group.all_feasible;
  Alcotest.(check (float 0.)) "min rate is 0" 0. r.Multi_group.min_rate

let test_failed_group_rolls_back () =
  (* Contended hub again, but the second group has an alternate relay:
     sequential order serves group A through the hub, then group B must
     still succeed via its relay — and if B had grabbed the hub first
     and failed later, rollback would matter.  Construct the rollback
     case directly: group B is a triangle that cannot complete, and its
     partial consumption must not block group C. *)
  let b = Graph.Builder.create () in
  let user x y = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x ~y in
  let b0 = user 0. 0. in
  let b1 = user 2000. 0. in
  let b2 = user 9500. 9500. (* unreachable *) in
  let c0 = user 0. 1000. in
  let c1 = user 2000. 1000. in
  let hub =
    Graph.Builder.add_vertex b ~kind:Graph.Switch ~qubits:2 ~x:1000. ~y:500.
  in
  List.iter
    (fun u -> ignore (Graph.Builder.add_edge b u hub 1300.))
    [ b0; b1; c0; c1 ];
  let g = Graph.Builder.freeze b in
  (* Group B = {b0, b1, b2}: b2 unreachable, so B fails after possibly
     consuming the hub for b0-b1.  Group C = {c0, c1} then needs the
     hub. *)
  let r =
    Multi_group.solve ~strategy:Multi_group.Sequential g params
      ~groups:[ [ b0; b1; b2 ]; [ c0; c1 ] ]
  in
  (match r.Multi_group.groups with
  | [ gb; gc ] ->
      check_bool "B failed" true (gb.Multi_group.tree = None);
      check_bool "C served thanks to rollback" true
        (gc.Multi_group.tree <> None)
  | _ -> Alcotest.fail "two groups expected")

(* The per-source enumeration Algorithm 4 ran before its multi-source
   grow step, kept as the naive reference: a full SSSP from every inside
   user, and every channel to an outside user a candidate. *)
let naive_attachment ~exclude g params ~capacity ~inside ~outside_users =
  let best = ref None in
  Hashtbl.iter
    (fun src () ->
      Routing.best_channels_from ~exclude g params ~capacity ~src
      |> List.iter (fun (dst, (c : Channel.t)) ->
             if List.mem dst outside_users then
               match !best with
               | Some (b : Channel.t)
                 when Qnet_util.Logprob.compare_desc b.rate c.rate <= 0 ->
                   ()
               | _ -> best := Some c))
    inside;
  !best

(* One random grow step, drawn from a seed: a Waxman network, a random
   inside/outside split of its users, failed switches and fibers, and
   capacity partly consumed by earlier channels. *)
let prop_attachment_matches_naive =
  QCheck.Test.make ~name:"best_attachment = per-source enumeration"
    ~count:300
    QCheck.(make ~print:string_of_int Gen.(int_range 1 100_000))
    (fun seed ->
      let rng = Prng.create seed in
      let spec =
        Qnet_topology.Spec.create
          ~n_users:(2 + Prng.int rng 9)
          ~n_switches:(4 + Prng.int rng 40)
          ~qubits_per_switch:(2 + Prng.int rng 5)
          ()
      in
      let g = Qnet_topology.Waxman.generate rng spec in
      let params =
        match Prng.int rng 4 with
        | 0 -> Params.create ~alpha:1e-4 ~q:0. ()
        | 1 -> Params.create ~alpha:3e-4 ~q:0.6 ()
        | _ -> params
      in
      let users = Array.of_list (Graph.users g) in
      Prng.shuffle_in_place rng users;
      let k = 1 + Prng.int rng (Array.length users - 1) in
      let inside = Hashtbl.create 8 in
      Array.iteri (fun i u -> if i < k then Hashtbl.replace inside u ()) users;
      let outside_users =
        List.filter (fun u -> not (Hashtbl.mem inside u)) (Graph.users g)
      in
      let failed_v =
        Array.init (Graph.vertex_count g) (fun v ->
            Graph.is_switch g v && Prng.bernoulli rng 0.15)
      in
      let failed_e =
        Array.init (Graph.edge_count g) (fun _ -> Prng.bernoulli rng 0.1)
      in
      let exclude =
        {
          Routing.vertex_ok = (fun v -> not failed_v.(v));
          edge_ok = (fun e -> not failed_e.(e));
        }
      in
      let capacity = Capacity.of_graph g in
      for _ = 1 to Prng.int rng 5 do
        let src = Prng.pick rng users and dst = Prng.pick rng users in
        if src <> dst then
          match Routing.best_channel g params ~capacity ~src ~dst with
          | Some c -> Capacity.consume_channel capacity c.Channel.path
          | None -> ()
      done;
      let expected =
        naive_attachment ~exclude g params ~capacity ~inside ~outside_users
      in
      match
        ( expected,
          Multi_group.best_attachment ~exclude g params ~capacity ~inside
            ~outside_users )
      with
      | None, None -> true
      | Some (a : Channel.t), Some (b : Channel.t) ->
          a.path = b.path
          && Int64.equal
               (Int64.bits_of_float (Qnet_util.Logprob.to_neg_log a.rate))
               (Int64.bits_of_float (Qnet_util.Logprob.to_neg_log b.rate))
      | _ -> false)

let () =
  Alcotest.run "multi_group"
    [
      ("validation", [ Alcotest.test_case "inputs" `Quick test_validation ]);
      ( "strategies",
        [
          Alcotest.test_case "sequential" `Quick test_sequential_valid;
          Alcotest.test_case "round robin" `Quick test_round_robin_valid;
          Alcotest.test_case "single group = alg4" `Quick
            test_single_group_matches_prim;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "summary" `Quick test_summary_fields;
          Alcotest.test_case "contention" `Quick test_capacity_contention;
          Alcotest.test_case "rollback" `Quick test_failed_group_rolls_back;
          QCheck_alcotest.to_alcotest prop_attachment_matches_naive;
        ] );
    ]
