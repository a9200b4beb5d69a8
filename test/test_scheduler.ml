(* Unit tests for Qnet_sim.Scheduler — the online admission controller. *)

module Graph = Qnet_graph.Graph
module Prng = Qnet_util.Prng
module Scheduler = Qnet_sim.Scheduler
open Qnet_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let params = Params.default

let network ?(users = 8) ?(qubits = 4) seed =
  let rng = Prng.create seed in
  let spec =
    Qnet_topology.Spec.create ~n_users:users ~n_switches:25
      ~qubits_per_switch:qubits ()
  in
  Qnet_topology.Waxman.generate rng spec

let request ?(duration = 5) id users arrival =
  { Scheduler.id; users; arrival; duration }

let test_validation () =
  let g = network 1 in
  let u = Graph.users g in
  let u0 = List.nth u 0 and u1 = List.nth u 1 in
  let bad label reqs msg =
    Alcotest.check_raises label (Invalid_argument msg) (fun () ->
        ignore (Scheduler.run g params ~requests:reqs))
  in
  bad "duplicate id"
    [ request 1 [ u0; u1 ] 0; request 1 [ u0; u1 ] 1 ]
    "Scheduler.run: duplicate request id";
  bad "bad arrival" [ request 1 [ u0; u1 ] (-1) ]
    "Scheduler.run: negative arrival";
  bad "short group" [ request 1 [ u0 ] 0 ]
    "Scheduler.run: request needs >= 2 users";
  bad "duplicate member" [ request 1 [ u0; u0 ] 0 ]
    "Scheduler.run: duplicate users in request";
  bad "duration"
    [ { Scheduler.id = 1; users = [ u0; u1 ]; arrival = 0; duration = 0 } ]
    "Scheduler.run: duration < 1";
  let s = List.hd (Graph.switches g) in
  bad "switch member" [ request 1 [ u0; s ] 0 ]
    "Scheduler.run: request member is not a user"

let test_single_request_accepted () =
  let g = network 2 in
  let u = Graph.users g in
  let reqs = [ request 0 [ List.nth u 0; List.nth u 1 ] 0 ] in
  let stats, outcomes = Scheduler.run g params ~requests:reqs in
  check_int "arrived" 1 stats.Scheduler.arrived;
  check_int "accepted" 1 stats.Scheduler.accepted;
  Alcotest.(check (float 1e-12)) "ratio" 1. stats.Scheduler.acceptance_ratio;
  match outcomes with
  | [ { Scheduler.disposition = Scheduler.Accepted { slot; rate; tree }; _ } ]
    ->
      check_int "admitted on arrival" 0 slot;
      check_bool "positive rate" true (rate > 0.);
      check_bool "valid tree" true
        (Verify.is_valid g params
           ~users:(List.filteri (fun i _ -> i < 2) u)
           tree)
  | _ -> Alcotest.fail "expected one acceptance"

let test_contention_drop_policy () =
  (* Two pair-requests forced through one 2-qubit hub, same slot: the
     second must be dropped under Drop. *)
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
  let reqs =
    [ request ~duration:4 0 [ a0; a1 ] 0; request ~duration:4 1 [ b0; b1 ] 0 ]
  in
  let stats, _ = Scheduler.run ~policy:Scheduler.Drop g params ~requests:reqs in
  check_int "one accepted" 1 stats.Scheduler.accepted;
  check_int "one rejected" 1 stats.Scheduler.rejected;
  (* With queueing, the second waits out the first lease (4 slots). *)
  let stats, outcomes =
    Scheduler.run ~policy:(Scheduler.Queue 10) g params ~requests:reqs
  in
  check_int "both eventually accepted" 2 stats.Scheduler.accepted;
  check_bool "waiting happened" true (stats.Scheduler.mean_wait_slots > 0.);
  List.iter
    (fun (o : Scheduler.outcome) ->
      match o.Scheduler.disposition with
      | Scheduler.Accepted { slot; _ } ->
          check_bool "second admitted after lease expiry" true
            (o.Scheduler.request.Scheduler.id = 0 || slot >= 4)
      | Scheduler.Rejected _ -> Alcotest.fail "no rejections expected")
    outcomes

let test_queue_timeout () =
  (* Same contention but the lease outlives the queue patience. *)
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
  let reqs =
    [ request ~duration:50 0 [ a0; a1 ] 0; request ~duration:5 1 [ b0; b1 ] 0 ]
  in
  let stats, _ =
    Scheduler.run ~policy:(Scheduler.Queue 3) g params ~requests:reqs
  in
  check_int "queued request times out" 1 stats.Scheduler.rejected

let test_leases_release () =
  (* Sequential non-overlapping requests through the same hub must all
     be admitted: leases release qubits. *)
  let g = network ~qubits:2 3 in
  let u = Graph.users g in
  let u0 = List.nth u 0 and u1 = List.nth u 1 in
  let reqs =
    List.init 5 (fun i -> request ~duration:2 i [ u0; u1 ] (i * 3))
  in
  let stats, _ = Scheduler.run g params ~requests:reqs in
  check_int "all admitted in turn" 5 stats.Scheduler.accepted;
  check_bool "peak usage bounded" true (stats.Scheduler.peak_qubits_in_use > 0)

let test_outcomes_cover_all_requests () =
  let g = network 4 in
  let rng = Prng.create 9 in
  let reqs =
    Scheduler.random_requests rng g ~n:30 ~mean_gap:2. ~max_group:4
      ~duration_range:(1, 6)
  in
  let stats, outcomes = Scheduler.run ~policy:(Scheduler.Queue 5) g params ~requests:reqs in
  check_int "every request decided" 30 (List.length outcomes);
  check_int "stats add up" 30
    (stats.Scheduler.accepted + stats.Scheduler.rejected)

let test_random_requests_wellformed () =
  let g = network 5 in
  let rng = Prng.create 11 in
  let reqs =
    Scheduler.random_requests rng g ~n:50 ~mean_gap:1.5 ~max_group:5
      ~duration_range:(2, 4)
  in
  check_int "count" 50 (List.length reqs);
  let sorted_arrivals =
    List.map (fun r -> r.Scheduler.arrival) reqs
  in
  check_bool "arrivals non-decreasing" true
    (sorted_arrivals = List.sort compare sorted_arrivals);
  List.iter
    (fun r ->
      check_bool "group size" true
        (List.length r.Scheduler.users >= 2
        && List.length r.Scheduler.users <= 5);
      check_bool "duration range" true
        (r.Scheduler.duration >= 2 && r.Scheduler.duration <= 4);
      check_bool "distinct members" true
        (List.length (List.sort_uniq compare r.Scheduler.users)
        = List.length r.Scheduler.users))
    reqs;
  Alcotest.check_raises "max_group too large"
    (Invalid_argument "Scheduler.random_requests: max_group exceeds user count")
    (fun () ->
      ignore
        (Scheduler.random_requests rng g ~n:1 ~mean_gap:1. ~max_group:100
           ~duration_range:(1, 2)))

let test_lease_roundtrip () =
  let g = network ~qubits:4 7 in
  let u = Graph.users g in
  let users = [ List.nth u 0; List.nth u 1 ] in
  let capacity = Capacity.of_graph g in
  let tree =
    match Multi_group.prim_for_users g params ~capacity ~users with
    | Some t -> t
    | None -> Alcotest.fail "pair must route on a fresh network"
  in
  let lease = Scheduler.Lease.acquire tree in
  check_bool "lease covers qubits" true (Scheduler.Lease.qubits lease > 0);
  check_int "one channel path per channel"
    (List.length tree.Ent_tree.channels)
    (List.length (Scheduler.Lease.channels lease));
  let consumed_somewhere =
    List.exists (fun s -> Capacity.used capacity s > 0) (Graph.switches g)
  in
  check_bool "routing consumed capacity" true consumed_somewhere;
  Scheduler.Lease.release capacity lease;
  List.iter
    (fun s -> check_int "release restores residual" 0 (Capacity.used capacity s))
    (Graph.switches g);
  Alcotest.check_raises "double release rejected"
    (Invalid_argument "Scheduler.Lease.release: already released") (fun () ->
      Scheduler.Lease.release capacity lease)

let test_lease_invariant_violation () =
  (* Releasing a lease whose qubits were already refunded behind its
     back must trip the capacity invariant, not silently underflow. *)
  let g = network ~qubits:4 8 in
  let u = Graph.users g in
  let users = [ List.nth u 0; List.nth u 1 ] in
  let capacity = Capacity.of_graph g in
  let tree =
    match Multi_group.prim_for_users g params ~capacity ~users with
    | Some t -> t
    | None -> Alcotest.fail "pair must route on a fresh network"
  in
  let lease = Scheduler.Lease.acquire tree in
  List.iter
    (fun (c : Channel.t) -> Capacity.release_channel capacity c.Channel.path)
    tree.Ent_tree.channels;
  Alcotest.check_raises "invariant trips"
    (Invalid_argument
       "Scheduler.Lease.release: capacity invariant violated (refund exceeds \
        recorded consumption)") (fun () ->
      Scheduler.Lease.release capacity lease)

(* Route a 3-user group so the lease spans at least two channels —
   partial release needs something to keep. *)
let multi_channel_lease seed =
  let g = network ~qubits:4 seed in
  let u = Graph.users g in
  let users = [ List.nth u 0; List.nth u 1; List.nth u 2 ] in
  let capacity = Capacity.of_graph g in
  match Multi_group.prim_for_users g params ~capacity ~users with
  | Some t -> (g, capacity, Scheduler.Lease.acquire t)
  | None -> Alcotest.fail "triple must route on a fresh network"

let test_release_where_partial () =
  let g, capacity, lease = multi_channel_lease 21 in
  let paths = Scheduler.Lease.channels lease in
  check_bool "multi-channel tree" true (List.length paths >= 2);
  (* No dead channel: the very same live lease comes back, nothing is
     refunded. *)
  (match Scheduler.Lease.release_where capacity lease ~dead:(fun _ -> false) with
  | Some l, [] -> check_bool "lease returned untouched" true (l == lease)
  | _ -> Alcotest.fail "expected the unchanged lease");
  (* Kill exactly the first channel. *)
  let victim = List.hd paths in
  let remainder, dead =
    Scheduler.Lease.release_where capacity lease ~dead:(fun p -> p = victim)
  in
  Alcotest.(check (list (list int))) "dead path reported" [ victim ] dead;
  let remainder =
    match remainder with
    | Some r -> r
    | None -> Alcotest.fail "survivors must form a remainder lease"
  in
  check_int "remainder keeps the other channels"
    (List.length paths - 1)
    (List.length (Scheduler.Lease.channels remainder));
  check_int "qubits split exactly"
    (Scheduler.Lease.qubits lease)
    (Scheduler.Lease.qubits remainder + (2 * (List.length victim - 2)));
  (* The original lease is retired; only the remainder is live. *)
  Alcotest.check_raises "original retired"
    (Invalid_argument "Scheduler.Lease.release_where: already released")
    (fun () ->
      ignore (Scheduler.Lease.release_where capacity lease ~dead:(fun _ -> true)));
  Scheduler.Lease.release capacity remainder;
  List.iter
    (fun s -> check_int "everything refunded" 0 (Capacity.used capacity s))
    (Graph.switches g)

let test_release_where_all_dead () =
  let g, capacity, lease = multi_channel_lease 22 in
  let paths = Scheduler.Lease.channels lease in
  let remainder, dead =
    Scheduler.Lease.release_where capacity lease ~dead:(fun _ -> true)
  in
  check_bool "no remainder" true (remainder = None);
  check_int "every path refunded" (List.length paths) (List.length dead);
  List.iter
    (fun s -> check_int "fully refunded" 0 (Capacity.used capacity s))
    (Graph.switches g);
  Alcotest.check_raises "double release rejected"
    (Invalid_argument "Scheduler.Lease.release: already released") (fun () ->
      Scheduler.Lease.release capacity lease)

let test_release_where_refunds_once_qcheck () =
  (* Any random subset of channels may die; afterwards the books must
     balance and the retired lease must refuse a second refund. *)
  let prop seed =
    let g = network ~users:6 ~qubits:3 ((seed mod 40) + 1) in
    let rng = Prng.create seed in
    let u = Array.of_list (Graph.users g) in
    Prng.shuffle_in_place rng u;
    let users = Array.to_list (Array.sub u 0 (2 + Prng.int rng 3)) in
    let capacity = Capacity.of_graph g in
    match Multi_group.prim_for_users g params ~capacity ~users with
    | None -> true (* infeasible draw: nothing to lease *)
    | Some tree ->
        let lease = Scheduler.Lease.acquire tree in
        let marks =
          List.map
            (fun p -> (p, Prng.bool rng))
            (Scheduler.Lease.channels lease)
        in
        let remainder, dead_paths =
          Scheduler.Lease.release_where capacity lease ~dead:(fun p ->
              List.assoc p marks)
        in
        List.iter
          (fun p ->
            if not (List.assoc p marks) then
              Alcotest.fail "live channel reported dead")
          dead_paths;
        Option.iter (fun r -> Scheduler.Lease.release capacity r) remainder;
        List.iter
          (fun s ->
            if Capacity.used capacity s <> 0 then
              Alcotest.failf "switch %d not fully refunded" s)
          (Graph.switches g);
        (* Whichever way it went, the original lease handle is spent. *)
        (try
           Scheduler.Lease.release capacity lease;
           Alcotest.fail "second refund accepted"
         with Invalid_argument _ -> ());
        true
  in
  let test =
    QCheck.Test.make ~count:100 ~name:"release_where refunds exactly once"
      QCheck.(int_range 1 10_000)
      prop
  in
  QCheck.Test.check_exn test

let test_heavier_load_lowers_acceptance () =
  let g = network ~qubits:2 6 in
  let run gap =
    let rng = Prng.create 13 in
    let reqs =
      Scheduler.random_requests rng g ~n:40 ~mean_gap:gap ~max_group:3
        ~duration_range:(4, 8)
    in
    (fst (Scheduler.run g params ~requests:reqs)).Scheduler.acceptance_ratio
  in
  let sparse = run 10. and dense = run 0.5 in
  check_bool "denser arrivals accept no more" true (dense <= sparse +. 1e-9)

let () =
  Alcotest.run "scheduler"
    [
      ("validation", [ Alcotest.test_case "inputs" `Quick test_validation ]);
      ( "admission",
        [
          Alcotest.test_case "single request" `Quick
            test_single_request_accepted;
          Alcotest.test_case "contention + drop" `Quick
            test_contention_drop_policy;
          Alcotest.test_case "queue timeout" `Quick test_queue_timeout;
          Alcotest.test_case "lease release" `Quick test_leases_release;
          Alcotest.test_case "all decided" `Quick
            test_outcomes_cover_all_requests;
        ] );
      ( "lease",
        [
          Alcotest.test_case "roundtrip" `Quick test_lease_roundtrip;
          Alcotest.test_case "invariant violation" `Quick
            test_lease_invariant_violation;
          Alcotest.test_case "partial release" `Quick
            test_release_where_partial;
          Alcotest.test_case "all channels dead" `Quick
            test_release_where_all_dead;
          Alcotest.test_case "refunds exactly once (qcheck)" `Slow
            test_release_where_refunds_once_qcheck;
        ] );
      ( "workload",
        [
          Alcotest.test_case "random requests" `Quick
            test_random_requests_wellformed;
          Alcotest.test_case "load response" `Quick
            test_heavier_load_lowers_acceptance;
        ] );
    ]
