(* Unit and property tests for qnet_online — the dynamic traffic engine:
   event-queue ordering, workload determinism, admission / queue /
   expiry semantics, policy adapters and tiers, and the central safety
   property that concurrent leases never oversubscribe a switch. *)

module Graph = Qnet_graph.Graph
module Prng = Qnet_util.Prng
module Event_queue = Qnet_online.Event_queue
module Fsched = Qnet_faults.Schedule
module Workload = Qnet_online.Workload
module Policy = Qnet_online.Policy
module Engine = Qnet_online.Engine
open Qnet_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let params = Params.default

let network ?(users = 8) ?(switches = 25) ?(qubits = 4) seed =
  let rng = Prng.create seed in
  let spec =
    Qnet_topology.Spec.create ~n_users:users ~n_switches:switches
      ~qubits_per_switch:qubits ()
  in
  Qnet_topology.Waxman.generate rng spec

(* Four users joined through one 2-qubit hub: exactly one pair-channel
   fits at a time.  The canonical contention instance. *)
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
  (Graph.Builder.freeze b, (a0, a1), (b0, b1))

let request ?(duration = 4.) ?(patience = 0.) id users arrival =
  {
    Workload.id;
    users;
    arrival;
    duration;
    deadline = arrival +. patience;
  }

(* ------------------------------------------------------------------ *)
(* Event queue                                                         *)

let test_event_queue_order () =
  let q = Event_queue.create () in
  Event_queue.push q 3. "c";
  Event_queue.push q 1. "a";
  Event_queue.push q 2. "b";
  Alcotest.(check (option (pair (float 0.) string)))
    "peek is earliest" (Some (1., "a"))
    (Option.map (fun t -> (t, "a")) (Event_queue.peek_time q));
  let drain () =
    let rec go acc =
      match Event_queue.pop q with
      | None -> List.rev acc
      | Some (_, v) -> go (v :: acc)
    in
    go []
  in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (drain ());
  (* FIFO among equal timestamps — the determinism guarantee. *)
  List.iteri (fun i v -> Event_queue.push q (float_of_int (i mod 2)) v)
    [ "e0"; "o0"; "e1"; "o1"; "e2"; "o2" ];
  Alcotest.(check (list string))
    "fifo within a timestamp"
    [ "e0"; "e1"; "e2"; "o0"; "o1"; "o2" ]
    (drain ());
  check_bool "empty" true (Event_queue.is_empty q);
  Alcotest.check_raises "nan rejected"
    (Invalid_argument "Event_queue.push: NaN timestamp") (fun () ->
      Event_queue.push q Float.nan "x")

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)

let test_workload_deterministic () =
  let g = network 1 in
  let spec = Workload.spec ~requests:40 () in
  let gen seed = Workload.generate (Prng.create seed) g spec in
  check_bool "same seed, same workload" true (gen 5 = gen 5);
  check_bool "different seed, different workload" true (gen 5 <> gen 6)

let test_workload_shapes () =
  let g = network 2 in
  let spec =
    Workload.spec ~requests:60
      ~arrivals:(Workload.Batched { period = 4.; size = 5 })
      ~group_size:(Workload.Fixed 3) ~duration:(2., 2.) ~patience:(1., 3.) ()
  in
  let reqs = Workload.generate (Prng.create 3) g spec in
  check_int "count" 60 (List.length reqs);
  List.iter
    (fun (r : Workload.request) ->
      check_int "fixed group" 3 (List.length r.Workload.users);
      check_bool "batched arrival on grid" true
        (Float.rem r.Workload.arrival 4. = 0.);
      check_bool "duration pinned" true (r.Workload.duration = 2.);
      check_bool "deadline after arrival" true
        (r.Workload.deadline >= r.Workload.arrival +. 1.))
    reqs;
  (* 5 per batch instant *)
  let at_zero =
    List.length
      (List.filter (fun (r : Workload.request) -> r.Workload.arrival = 0.) reqs)
  in
  check_int "batch size" 5 at_zero

let test_workload_validation () =
  let g = network 3 in
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  ignore g;
  raises "Workload.spec: Poisson rate must be positive" (fun () ->
      ignore (Workload.spec ~arrivals:(Workload.Poisson 0.) ()));
  raises "Workload.spec: group size < 2" (fun () ->
      ignore (Workload.spec ~group_size:(Workload.Fixed 1) ()));
  raises "Workload.spec: duration must be positive" (fun () ->
      ignore (Workload.spec ~duration:(0., 1.) ()));
  raises "Workload.spec: bad patience range" (fun () ->
      ignore (Workload.spec ~patience:(3., 1.) ()));
  Alcotest.check_raises "population bound"
    (Invalid_argument "Workload.generate: group size exceeds user population")
    (fun () ->
      ignore
        (Workload.generate (Prng.create 1) g
           (Workload.spec ~group_size:(Workload.Uniform (2, 100)) ())))

(* ------------------------------------------------------------------ *)
(* Engine semantics                                                    *)

let test_single_request_served () =
  let g = network 4 in
  let u = Graph.users g in
  let reqs = [ request 0 [ List.nth u 0; List.nth u 1 ] 0. ] in
  let report, outcomes = Engine.run g params ~requests:reqs in
  check_int "served" 1 report.Engine.served;
  match outcomes with
  | [ { Engine.resolution = Engine.Served { start; tree; rate; _ }; _ } ] ->
      check_bool "served on arrival" true (start = 0.);
      check_bool "positive rate" true (rate > 0.);
      check_bool "tree valid" true
        (Verify.is_valid g params
           ~users:[ List.nth u 0; List.nth u 1 ]
           tree)
  | _ -> Alcotest.fail "expected one served outcome"

let test_contention_and_queueing () =
  let g, (a0, a1), (b0, b1) = hub_network () in
  let reqs patience =
    [
      request ~duration:4. ~patience 0 [ a0; a1 ] 0.;
      request ~duration:4. ~patience 1 [ b0; b1 ] 0.;
    ]
  in
  (* Reject admission: the loser is turned away at arrival. *)
  let config = Engine.config ~admission:Engine.Reject Policy.prim in
  let report, outcomes = Engine.run ~config g params ~requests:(reqs 0.) in
  check_int "reject: one served" 1 report.Engine.served;
  check_int "reject: one rejected" 1 report.Engine.rejected;
  (match (List.nth outcomes 1).Engine.resolution with
  | Engine.Rejected { queue_full; _ } ->
      check_bool "rejected for routing, not queue bound" false queue_full
  | _ -> Alcotest.fail "expected request 1 rejected");
  (* Queueing with enough patience: the loser waits out the lease. *)
  let config = Engine.config ~retry_base:0.5 Policy.prim in
  let report, outcomes = Engine.run ~config g params ~requests:(reqs 10.) in
  check_int "queue: both served" 2 report.Engine.served;
  check_bool "waiting happened" true (report.Engine.mean_wait > 0.);
  (match (List.nth outcomes 1).Engine.resolution with
  | Engine.Served { start; attempts; _ } ->
      check_bool "served only after the lease expired" true (start >= 4.);
      check_bool "took retries" true (attempts > 1)
  | _ -> Alcotest.fail "expected request 1 served");
  check_bool "retries counted" true (report.Engine.retries > 0);
  (* Patience shorter than the lease: the loser expires. *)
  let report, outcomes = Engine.run ~config g params ~requests:(reqs 2.) in
  check_int "short patience: one served" 1 report.Engine.served;
  check_int "short patience: one expired" 1 report.Engine.expired;
  match (List.nth outcomes 1).Engine.resolution with
  | Engine.Expired { at; _ } ->
      check_bool "expired at its deadline" true (at = 2.)
  | _ -> Alcotest.fail "expected request 1 expired"

let test_queue_bound () =
  let g, (a0, a1), (b0, b1) = hub_network () in
  (* Three contenders behind one lease; a queue bound of 1 admits only
     the first into the queue, the next is turned away queue-full. *)
  let reqs =
    [
      request ~duration:10. ~patience:20. 0 [ a0; a1 ] 0.;
      request ~duration:2. ~patience:20. 1 [ b0; b1 ] 0.;
      request ~duration:2. ~patience:20. 2 [ a0; b1 ] 0.5;
    ]
  in
  let config = Engine.config ~admission:(Engine.Queue 1) Policy.prim in
  let report, outcomes = Engine.run ~config g params ~requests:reqs in
  check_int "one queue-full rejection" 1 report.Engine.rejected;
  (match (List.nth outcomes 2).Engine.resolution with
  | Engine.Rejected { queue_full; _ } ->
      check_bool "rejected because the queue was full" true queue_full
  | _ -> Alcotest.fail "expected request 2 rejected");
  check_int "queue depth peaked at the bound" 1 report.Engine.peak_queue_depth

let test_conservation_and_determinism () =
  let g = network ~qubits:2 5 in
  let spec =
    Workload.spec ~requests:50 ~arrivals:(Workload.Poisson 2.)
      ~patience:(0., 6.) ()
  in
  let run () =
    let reqs = Workload.generate (Prng.create 11) g spec in
    let config = Engine.config Policy.prim in
    Engine.run ~config g params ~requests:reqs
  in
  let report, outcomes = run () in
  check_int "every request resolved" 50 (List.length outcomes);
  check_int "conservation" 50
    (report.Engine.served + report.Engine.rejected + report.Engine.expired);
  let report', outcomes' = run () in
  check_bool "identical reports across runs" true (report = report');
  check_bool "identical outcome count" true
    (List.length outcomes = List.length outcomes');
  let budget =
    List.fold_left (fun acc s -> acc + Graph.qubits g s) 0 (Graph.switches g)
  in
  check_bool "peak within total budget" true
    (report.Engine.peak_qubits_in_use <= budget);
  check_bool "utilization in [0,1]" true
    (report.Engine.mean_utilization >= 0.
    && report.Engine.mean_utilization <= 1.)

let test_engine_validation () =
  let g = network 6 in
  let u = Graph.users g in
  let u0 = List.nth u 0 and u1 = List.nth u 1 in
  let bad label reqs msg =
    Alcotest.check_raises label (Invalid_argument msg) (fun () ->
        ignore (Engine.run g params ~requests:reqs))
  in
  bad "duplicate id"
    [ request 1 [ u0; u1 ] 0.; request 1 [ u0; u1 ] 1. ]
    "Engine.run: duplicate request id";
  bad "negative arrival" [ request 1 [ u0; u1 ] (-1.) ]
    "Engine.run: bad arrival time";
  bad "short group" [ request 1 [ u0 ] 0. ]
    "Engine.run: request needs >= 2 users";
  bad "duplicate users" [ request 1 [ u0; u0 ] 0. ]
    "Engine.run: duplicate users in request";
  bad "zero duration"
    [ request ~duration:0. 1 [ u0; u1 ] 0. ]
    "Engine.run: duration must be positive";
  bad "deadline before arrival"
    [ { Workload.id = 1; users = [ u0; u1 ]; arrival = 2.; duration = 1.;
        deadline = 1. } ]
    "Engine.run: deadline before arrival";
  let s = List.hd (Graph.switches g) in
  bad "non-user member" [ request 1 [ u0; s ] 0. ]
    "Engine.run: request member is not a user";
  Alcotest.check_raises "bad config"
    (Invalid_argument "Engine.config: retry_max < retry_base") (fun () ->
      ignore (Engine.config ~retry_base:2. ~retry_max:1. Policy.prim))

(* Regression: a queued request whose patience runs out exactly at a
   retry instant must be recorded [Expired], not retried into service
   past its deadline (and never [Rejected]).  The winner's lease ends
   at t = 2 — the very instant the loser's clamped final retry fires —
   so capacity IS available then; serving it anyway would breach the
   deadline contract. *)
let test_retry_at_deadline_expires () =
  let g, (a0, a1), (b0, b1) = hub_network () in
  let reqs =
    [
      request ~duration:2. ~patience:10. 0 [ a0; a1 ] 0.;
      request ~duration:2. ~patience:2. 1 [ b0; b1 ] 0.;
    ]
  in
  let config = Engine.config ~retry_base:0.5 Policy.prim in
  let report, outcomes = Engine.run ~config g params ~requests:reqs in
  check_int "winner served" 1 report.Engine.served;
  check_int "loser expired" 1 report.Engine.expired;
  check_int "nothing rejected" 0 report.Engine.rejected;
  check_int "nothing shed" 0 report.Engine.shed;
  match (List.nth outcomes 1).Engine.resolution with
  | Engine.Expired { at; _ } ->
      check_bool "expired exactly at its deadline" true (at = 2.)
  | _ -> Alcotest.fail "expected request 1 to expire at its deadline"

(* ------------------------------------------------------------------ *)
(* Policies                                                            *)

let test_policy_names () =
  check_bool "prim" true (Policy.of_name "prim" <> None);
  check_bool "alg3" true (Policy.of_name "alg3" <> None);
  check_bool "eqcast" true (Policy.of_name "eqcast" <> None);
  check_bool "unknown" true (Policy.of_name "dijkstra" = None);
  check_bool "no cached- variants" true (Policy.of_name "cached-prim" = None)

let test_try_consume () =
  let g, (a0, a1), _ = hub_network () in
  let capacity = Capacity.of_graph g in
  let tree =
    match Multi_group.prim_for_users g params ~capacity ~users:[ a0; a1 ] with
    | Some t -> t
    | None -> Alcotest.fail "hub pair must route"
  in
  (* prim_for_users consumed the hub's 2 qubits; a second copy of the
     same tree must be refused and leave the state untouched. *)
  let hub = List.hd (Graph.switches g) in
  check_int "hub full" 0 (Capacity.remaining capacity hub);
  check_bool "second copy refused" false (Policy.try_consume capacity tree);
  check_int "refusal left state untouched" 0 (Capacity.remaining capacity hub);
  Capacity.release_channel capacity
    (List.hd tree.Ent_tree.channels).Channel.path;
  check_bool "fits after release" true (Policy.try_consume capacity tree);
  check_int "consumed again" 0 (Capacity.remaining capacity hub)

let test_adapter_respects_residual () =
  let g, (a0, a1), (b0, b1) = hub_network () in
  let alg3 = Option.get (Policy.of_name "alg3") in
  let capacity = Capacity.of_graph g in
  check_bool "first pair routes" true
    (Qnet_online.Policy.route alg3 g params ~capacity ~users:[ a0; a1 ] <> None);
  check_bool "hub depleted: second pair refused" true
    (Qnet_online.Policy.route alg3 g params ~capacity ~users:[ b0; b1 ] = None)

(* A ladder keeps no policy state of its own, so a tier with hidden
   state (the hierarchical policy's segment cache) would restore cold:
   [tiered] refuses it up front. *)
let test_tiered_refuses_stateful_tier () =
  let g = network 7 in
  let part = Qnet_hier.Partition.kmeans ~regions:2 ~seed:7 g in
  let hier = Qnet_hier.Serve.policy (Qnet_hier.Oracle.create g params part) in
  Alcotest.check_raises "stateful tier refused"
    (Invalid_argument "Policy.tiered: tier hier-prim keeps hidden state")
    (fun () -> ignore (Policy.tiered [ hier; Policy.prim ]));
  Alcotest.check_raises "stateful floor refused"
    (Invalid_argument "Policy.tiered: tier hier-prim keeps hidden state")
    (fun () -> ignore (Policy.tiered [ Policy.prim; hier ]))

(* ------------------------------------------------------------------ *)
(* Safety property: concurrent leases never oversubscribe a switch.    *)

(* Replay every served outcome's lease interval and check that at all
   times the summed per-switch demand of the live trees fits the
   switch's budget — releases happen before grants at equal instants,
   exactly like the engine's event order. *)
let assert_never_oversubscribed g outcomes =
  let events =
    List.concat_map
      (fun (o : Engine.outcome) ->
        match o.Engine.resolution with
        | Engine.Served { start; finish; tree; _ } ->
            let usage = Ent_tree.qubit_usage tree in
            [ (finish, 0, List.map (fun (v, q) -> (v, -q)) usage);
              (start, 1, usage) ]
        | _ -> [])
      outcomes
    |> List.sort compare
  in
  let used = Array.make (Graph.vertex_count g) 0 in
  List.iter
    (fun (_, _, deltas) ->
      List.iter
        (fun (v, dq) ->
          used.(v) <- used.(v) + dq;
          if used.(v) < 0 then Alcotest.fail "negative usage in replay";
          if used.(v) > Graph.qubits g v then
            Alcotest.failf "switch %d oversubscribed: %d > %d" v used.(v)
              (Graph.qubits g v))
        deltas)
    events

let test_never_oversubscribed_qcheck () =
  let prop seed =
    let g = network ~users:6 ~switches:15 ~qubits:2 ((seed mod 50) + 1) in
    let spec =
      Workload.spec ~requests:30
        ~arrivals:(Workload.Poisson 2.)
        ~group_size:(Workload.Uniform (2, 3))
        ~duration:(1., 5.) ~patience:(0., 8.) ()
    in
    let reqs = Workload.generate (Prng.create seed) g spec in
    let policy =
      if seed mod 2 = 0 then Policy.prim
      else Option.get (Policy.of_name "alg3")
    in
    let config = Engine.config policy in
    let report, outcomes = Engine.run ~config g params ~requests:reqs in
    assert_never_oversubscribed g outcomes;
    (* Every served tree must also be individually valid for its
       request's users on the real network. *)
    List.iter
      (fun (o : Engine.outcome) ->
        match o.Engine.resolution with
        | Engine.Served { tree; _ } ->
            if
              not
                (Verify.is_valid g params ~users:o.Engine.request.Workload.users
                   tree)
            then Alcotest.fail "served tree invalid"
        | _ -> ())
      outcomes;
    report.Engine.served + report.Engine.rejected + report.Engine.expired
    = report.Engine.arrived
  in
  let test =
    QCheck.Test.make ~count:25 ~name:"no oversubscription under load"
      QCheck.(int_range 1 10_000)
      prop
  in
  QCheck.Test.check_exn test

(* ------------------------------------------------------------------ *)
(* Chaos replay property: under ANY fault/repair schedule — including
   spurious repairs and duplicate failures — no switch is ever
   oversubscribed and every interrupted lease is refunded exactly
   once.  Incidents let us reconstruct each request's full tree
   timeline: a lease holds its admitted tree until the first incident,
   then each incident's [after] tree until the next, ending at the
   lease expiry (served) or at the single aborting incident
   (interrupted). *)

let assert_fault_replay_safe g outcomes incidents =
  let by_req = Hashtbl.create 16 in
  List.iter
    (fun (i : Engine.incident) ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt by_req i.Engine.request_id)
      in
      Hashtbl.replace by_req i.Engine.request_id (prev @ [ i ]))
    incidents;
  let segments = ref [] in
  let rec walk ~finish ~final_tree t0 = function
    | [] ->
        Option.iter
          (fun f -> segments := (t0, f, Option.get final_tree) :: !segments)
          finish
    | (i : Engine.incident) :: rest -> (
        segments := (t0, i.Engine.at, i.Engine.before) :: !segments;
        match i.Engine.after with
        | Some _ -> walk ~finish ~final_tree i.Engine.at rest
        | None ->
            (* The abort must be the request's last incident. *)
            if rest <> [] then
              Alcotest.fail "incidents after an aborting incident")
  in
  List.iter
    (fun (o : Engine.outcome) ->
      let incs =
        Option.value ~default:[]
          (Hashtbl.find_opt by_req o.Engine.request.Workload.id)
      in
      match o.Engine.resolution with
      | Engine.Served { start; finish; tree; _ } ->
          List.iter
            (fun (i : Engine.incident) ->
              if i.Engine.after = None then
                Alcotest.fail "served request has an aborting incident")
            incs;
          walk ~finish:(Some finish) ~final_tree:(Some tree) start incs
      | Engine.Interrupted { start; at; _ } -> (
          match List.rev incs with
          | [] -> Alcotest.fail "interrupted without an incident"
          | last :: _ ->
              if last.Engine.after <> None then
                Alcotest.fail "interrupted but the last incident recovered";
              if last.Engine.at <> at then
                Alcotest.fail "abort time mismatch";
              if
                List.length
                  (List.filter
                     (fun (i : Engine.incident) -> i.Engine.after = None)
                     incs)
                <> 1
              then Alcotest.fail "lease aborted (refunded) more than once";
              walk ~finish:None ~final_tree:None start incs)
      | Engine.Rejected _ | Engine.Shed _ | Engine.Expired _ ->
          if incs <> [] then
            Alcotest.fail "request without a lease saw an incident")
    outcomes;
  (* Sweep the reconstructed segments: releases before grants at equal
     instants, per-switch demand within budget at all times, and every
     qubit given back by the end. *)
  let events =
    List.concat_map
      (fun (t0, t1, tree) ->
        let usage = Ent_tree.qubit_usage tree in
        [ (t1, 0, List.map (fun (v, q) -> (v, -q)) usage); (t0, 1, usage) ])
      !segments
    |> List.sort compare
  in
  let used = Array.make (Graph.vertex_count g) 0 in
  List.iter
    (fun (_, _, deltas) ->
      List.iter
        (fun (v, dq) ->
          used.(v) <- used.(v) + dq;
          if used.(v) < 0 then Alcotest.fail "negative usage in replay";
          if used.(v) > Graph.qubits g v then
            Alcotest.failf "switch %d oversubscribed: %d > %d" v used.(v)
              (Graph.qubits g v))
        deltas)
    events;
  Array.iteri
    (fun v u -> if u <> 0 then Alcotest.failf "switch %d not fully refunded" v)
    used

let test_fault_replay_qcheck () =
  let prop seed =
    let rng = Prng.create ((seed * 7) + 1) in
    let g = network ~users:6 ~switches:15 ~qubits:2 ((seed mod 50) + 1) in
    let spec =
      Workload.spec ~requests:25
        ~arrivals:(Workload.Poisson 1.5)
        ~group_size:(Workload.Uniform (2, 3))
        ~duration:(1., 5.) ~patience:(0., 8.) ()
    in
    let reqs = Workload.generate (Prng.create seed) g spec in
    (* Adversarial schedule: random instants, random elements, random
       direction — repairs of healthy elements and double failures
       included on purpose. *)
    let schedule =
      List.init
        (1 + Prng.int rng 60)
        (fun _ ->
          {
            Fsched.time = Prng.float rng 40.;
            element =
              (if Prng.bool rng then
                 Fsched.Link (Prng.int rng (Graph.edge_count g))
               else Fsched.Switch (Prng.int rng (Graph.vertex_count g)));
            up = Prng.bool rng;
          })
    in
    let recovery =
      match seed mod 3 with
      | 0 -> Engine.Abort
      | 1 -> Engine.Repair
      | _ -> Engine.Reroute
    in
    let config = Engine.config ~recovery Policy.prim in
    let incidents = ref [] in
    let report, outcomes =
      Engine.run ~config ~fault_schedule:schedule
        ~on_incident:(fun i -> incidents := i :: !incidents)
        g params ~requests:reqs
    in
    assert_fault_replay_safe g outcomes (List.rev !incidents);
    let interrupted =
      List.length
        (List.filter
           (fun o ->
             match o.Engine.resolution with
             | Engine.Interrupted _ -> true
             | _ -> false)
           outcomes)
    in
    check_int "aborts match interrupted outcomes" report.Engine.leases_aborted
      interrupted;
    check_int "interruption ledger balances" report.Engine.leases_interrupted
      (report.Engine.leases_recovered + report.Engine.leases_aborted);
    report.Engine.served + report.Engine.rejected + report.Engine.expired
    + interrupted
    = report.Engine.arrived
  in
  let test =
    QCheck.Test.make ~count:120
      ~name:"fault replay: refund exactly once, never oversubscribed"
      QCheck.(int_range 1 10_000)
      prop
  in
  QCheck.Test.check_exn test

(* ------------------------------------------------------------------ *)
(* Replay equivalence: a second run of the same inputs leaves the same
   trace — report, resolution stream, and the engine/overload counters —
   under batched arrivals, faults and overload too. *)

let run_with_engine_counters f =
  let module Tm = Qnet_telemetry.Metrics in
  Tm.set_enabled true;
  Tm.reset ();
  let result = f () in
  let counters =
    List.filter_map
      (fun (name, v) ->
        match v with
        | Tm.Counter_v n
          when String.starts_with ~prefix:"online.engine." name
               || String.starts_with ~prefix:"online.overload." name ->
            Some (name, n)
        | _ -> None)
      (Tm.snapshot ())
  in
  Tm.set_enabled false;
  (result, List.sort compare counters)

let test_batched_replay_qcheck () =
  let prop seed =
    let rng = Prng.create ((seed * 13) + 5) in
    let g = network ~users:6 ~switches:15 ~qubits:2 ((seed mod 50) + 1) in
    let spec =
      Workload.spec ~requests:30
        ~arrivals:
          (match seed mod 3 with
          | 0 -> Workload.Batched { period = 1.5; size = 5 }
          | 1 -> Workload.Poisson 2.
          | _ -> Workload.Pareto { alpha = 1.5; lo = 0.05; hi = 2. })
        ~group_size:(Workload.Uniform (2, 3))
        ~duration:(1., 5.) ~patience:(0., 8.) ()
    in
    let reqs = Workload.generate (Prng.create seed) g spec in
    let policy =
      match seed mod 4 with
      | 1 -> Option.get (Policy.of_name "alg3")
      | 2 -> Option.get (Policy.of_name "eqcast")
      | _ -> Policy.prim
    in
    let overload =
      if seed mod 5 = 0 then
        Qnet_overload.Admission.make ~max_queue:4 ~max_inflight:6 ~rate:2. ()
      else Qnet_overload.Admission.none
    in
    (* Half the scenarios replay an adversarial fault schedule. *)
    let fault_schedule =
      if seed mod 2 = 0 then
        Some
          (List.init
             (1 + Prng.int rng 40)
             (fun _ ->
               {
                 Fsched.time = Prng.float rng 30.;
                 element =
                   (if Prng.bool rng then
                      Fsched.Link (Prng.int rng (Graph.edge_count g))
                    else Fsched.Switch (Prng.int rng (Graph.vertex_count g)));
                 up = Prng.bool rng;
               }))
      else None
    in
    let run () =
      let config = Engine.config ~retry_base:0.5 ~overload policy in
      run_with_engine_counters (fun () ->
          Engine.run ~config ?fault_schedule g params ~requests:reqs)
    in
    let (base_report, base_outcomes), base_counters = run () in
    let (report, outcomes), counters = run () in
    if report <> base_report then Alcotest.fail "report diverged on replay";
    if outcomes <> base_outcomes then
      Alcotest.fail "outcomes diverged on replay";
    if counters <> base_counters then
      Alcotest.fail "engine counters diverged on replay";
    true
  in
  let test =
    QCheck.Test.make ~count:30
      ~name:"serving replays identically (reports, outcomes, counters)"
      QCheck.(int_range 1 10_000)
      prop
  in
  QCheck.Test.check_exn test

(* ------------------------------------------------------------------ *)
(* Pinned reports                                                      *)

(* A fixed matrix of engine runs, each pinned to its served count and
   an MD5 of its report table plus a full rendering of its outcomes
   (floats in hex, trees as vertex paths).  The digests are constants:
   any change to event order, admission, recovery or restore shows up
   here as a mismatch. *)

let render_outcomes outcomes =
  let b = Buffer.create 4096 in
  let paths (tree : Ent_tree.t) =
    String.concat ";"
      (List.map
         (fun (c : Channel.t) ->
           String.concat "," (List.map string_of_int c.Channel.path))
         tree.Ent_tree.channels)
  in
  List.iter
    (fun (o : Engine.outcome) ->
      Buffer.add_string b (string_of_int o.Engine.request.Workload.id);
      Buffer.add_char b ' ';
      Buffer.add_string b
        (match o.Engine.resolution with
        | Engine.Served { start; finish; tree; rate; attempts; recoveries; tier }
          ->
            Printf.sprintf "served %h %h %h %d %d %d %s" start finish rate
              attempts recoveries tier (paths tree)
        | Engine.Rejected { at; queue_full } ->
            Printf.sprintf "rejected %h %b" at queue_full
        | Engine.Shed { at; reason } ->
            Printf.sprintf "shed %h %s" at
              (match reason with
              | Engine.Rate_limit -> "rate"
              | Engine.Queue_pressure -> "queue")
        | Engine.Expired { at; attempts } ->
            Printf.sprintf "expired %h %d" at attempts
        | Engine.Interrupted { start; at; attempts; recoveries } ->
            Printf.sprintf "interrupted %h %h %d %d" start at attempts
              recoveries);
      Buffer.add_char b '\n')
    outcomes;
  Buffer.contents b

let run_digest (report, outcomes) =
  Digest.to_hex
    (Digest.string
       (Qnet_util.Table.to_string (Engine.report_table report)
       ^ render_outcomes outcomes))

(* The bench's former serving scenario: the default Waxman network
   (seed 42), synchronised batches of [size] requests every 1.5 s. *)
let serving_run size =
  let g = Qnet_topology.Waxman.generate (Prng.create 42) Qnet_topology.Spec.default in
  let spec =
    Workload.spec ~requests:240
      ~arrivals:(Workload.Batched { period = 1.5; size })
      ()
  in
  let reqs = Workload.generate (Prng.create 8_233) g spec in
  Engine.run ~config:(Engine.config Policy.prim) g params ~requests:reqs

let pinned_network () = network ~users:8 ~switches:30 ~qubits:4 17

let pinned_requests ?(arrivals = Workload.Poisson 3.) g =
  Workload.generate (Prng.create 91) g
    (Workload.spec ~requests:80 ~arrivals ~patience:(0., 6.) ())

let faulty_run ?checkpoint ?restore_from recovery =
  let g = pinned_network () in
  let faults =
    Qnet_faults.Model.make ~mtbf:60. ~mttr:4.
      ~targets:Qnet_faults.Model.Both ~seed:5 ()
  in
  let config = Engine.config ~recovery Policy.prim in
  Engine.run ~config ~faults ?checkpoint ?restore_from g params
    ~requests:(pinned_requests g)

let tiered_run () =
  let g = pinned_network () in
  let policy, tier_stats =
    Policy.tiered ~fuel:100 ~breaker_threshold:2
      [ Option.get (Policy.of_name "alg3"); Policy.prim ]
  in
  let overload =
    Qnet_overload.Admission.make ~max_queue:5 ~max_inflight:7 ~rate:6.
      ~burst:3. ()
  in
  let config = Engine.config ~overload ~tier_stats policy in
  Engine.run ~config g params
    ~requests:
      (pinned_requests
         ~arrivals:(Workload.Pareto { alpha = 1.3; lo = 0.05; hi = 3. })
         g)

let reconfig_run () =
  let g = pinned_network () in
  let sw = Array.of_list (Graph.switches g) in
  let at time change = { Qnet_online.Reconfig.time; change } in
  let reconfig =
    Qnet_online.Reconfig.
      [
        at 4. (Switch_leave sw.(0));
        at 6. (Link_remove 3);
        at 9. (Provision { switch = sw.(1); qubits = 2 });
        at 14. (Switch_join sw.(0));
        at 15. (Link_add 3);
        at 22. (Provision { switch = sw.(1); qubits = 6 });
      ]
  in
  let config = Engine.config ~recovery:Engine.Reroute Policy.prim in
  Engine.run ~config ~reconfig g params ~requests:(pinned_requests g)

let hier_run () =
  let g = pinned_network () in
  let part = Qnet_hier.Partition.kmeans ~regions:3 ~seed:7 g in
  let policy = Qnet_hier.Serve.policy (Qnet_hier.Oracle.create g params part) in
  Engine.run ~config:(Engine.config policy) g params
    ~requests:(pinned_requests g)

(* The Repair run, restored from its third cut. *)
let restored_run () =
  let cuts = ref [] in
  let _ =
    faulty_run ~checkpoint:(5., fun _ snap -> cuts := snap :: !cuts)
      Engine.Repair
  in
  let snap = List.nth (List.rev !cuts) 2 in
  faulty_run ~restore_from:snap Engine.Repair

(* The restore row carries the Repair row's digest: the continuation
   from a mid-run cut reproduces the uninterrupted run. *)
let pinned_matrix =
  [
    ("batch:4:1.5", (fun () -> serving_run 4), 212,
     "cf1749132023bf6a33a6ebc5b18ce7c0");
    ("batch:8:1.5", (fun () -> serving_run 8), 156,
     "55a5fa25a06b3c46f266cdf881d4fcae");
    ("faults repair", (fun () -> faulty_run Engine.Repair), 48,
     "95e9ee0d99557eccf3ea13e688bc712f");
    ("faults reroute", (fun () -> faulty_run Engine.Reroute), 48,
     "e4777a3f02dd5fc5bea0a41341d4d538");
    ("tiered alg3>prim + limits", tiered_run, 23,
     "08495f7e38f460049326735a7ae8a398");
    ("reconfig", reconfig_run, 62, "bf6465e1d6195e03ce7d71517c6a18b3");
    ("hier", hier_run, 62, "84046f262fae8b4c509a9e03d8c8e616");
    ("restore mid-run", restored_run, 48,
     "95e9ee0d99557eccf3ea13e688bc712f");
  ]

let test_pinned_reports () =
  List.iter
    (fun (name, run, served, digest) ->
      let ((report, _) as result) = run () in
      check_int (name ^ " served") served report.Engine.served;
      Alcotest.(check string) (name ^ " digest") digest (run_digest result))
    pinned_matrix

let () =
  Alcotest.run "online"
    [
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_event_queue_order;
        ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "shapes" `Quick test_workload_shapes;
          Alcotest.test_case "validation" `Quick test_workload_validation;
        ] );
      ( "engine",
        [
          Alcotest.test_case "single request" `Quick test_single_request_served;
          Alcotest.test_case "contention + queueing" `Quick
            test_contention_and_queueing;
          Alcotest.test_case "queue bound" `Quick test_queue_bound;
          Alcotest.test_case "conservation + determinism" `Quick
            test_conservation_and_determinism;
          Alcotest.test_case "validation" `Quick test_engine_validation;
          Alcotest.test_case "retry at deadline expires" `Quick
            test_retry_at_deadline_expires;
          Alcotest.test_case "pinned reports" `Quick test_pinned_reports;
        ] );
      ( "policy",
        [
          Alcotest.test_case "names" `Quick test_policy_names;
          Alcotest.test_case "try_consume" `Quick test_try_consume;
          Alcotest.test_case "residual adapter" `Quick
            test_adapter_respects_residual;
          Alcotest.test_case "tiered refuses stateful tier" `Quick
            test_tiered_refuses_stateful_tier;
        ] );
      ( "safety",
        [
          Alcotest.test_case "never oversubscribed (qcheck)" `Slow
            test_never_oversubscribed_qcheck;
          Alcotest.test_case "fault replay (qcheck)" `Slow
            test_fault_replay_qcheck;
        ] );
      ( "batched",
        [
          Alcotest.test_case "replay identical (qcheck)" `Slow
            test_batched_replay_qcheck;
        ] );
    ]
