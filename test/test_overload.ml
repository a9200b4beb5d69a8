(* Unit and property tests for qnet_overload and its integration into
   the online engine: fuel budgets, the token-bucket limiter, circuit
   breakers, deterministic load shedding, bounded-Pareto workloads,
   tiered degradation, and the soak property that overloaded runs stay
   deterministic and never oversubscribe capacity. *)

module Graph = Qnet_graph.Graph
module Prng = Qnet_util.Prng
module Budget = Qnet_overload.Budget
module Limiter = Qnet_overload.Limiter
module Breaker = Qnet_overload.Breaker
module Admission = Qnet_overload.Admission
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

(* ------------------------------------------------------------------ *)
(* Budget                                                              *)

let test_budget () =
  let b = Budget.create ~fuel:3 in
  check_int "fuel" 3 (Budget.fuel b);
  check_int "remaining" 3 (Budget.remaining b);
  Budget.tick b;
  Budget.spend b 2;
  check_int "spent" 3 (Budget.spent b);
  check_bool "exhausted" true (Budget.exhausted b);
  Alcotest.check_raises "tick past empty" (Budget.Exhausted { fuel = 3 })
    (fun () -> Budget.tick b);
  (* Over-spend empties the budget before raising. *)
  let b = Budget.create ~fuel:5 in
  (try Budget.spend b 9 with Budget.Exhausted _ -> ());
  check_int "over-spend leaves empty" 0 (Budget.remaining b);
  Alcotest.check_raises "fuel must be positive"
    (Invalid_argument "Budget.create: fuel must be positive") (fun () ->
      ignore (Budget.create ~fuel:0));
  check_bool "spend 0 on fresh budget is free" true
    (let b = Budget.create ~fuel:1 in
     Budget.spend b 0;
     Budget.remaining b = 1)

(* ------------------------------------------------------------------ *)
(* Limiter                                                             *)

let test_limiter () =
  let l = Limiter.create ~rate:2. ~burst:3. in
  check_bool "starts full" true (Limiter.tokens l = 3.);
  (* Drain the burst at one instant. *)
  check_bool "take 1" true (Limiter.try_take l ~now:0.);
  check_bool "take 2" true (Limiter.try_take l ~now:0.);
  check_bool "take 3" true (Limiter.try_take l ~now:0.);
  check_bool "bucket empty" false (Limiter.try_take l ~now:0.);
  (* Refill at [rate] tokens per second, capped at [burst]. *)
  check_bool "refilled after 0.5s" true (Limiter.try_take l ~now:0.5);
  check_bool "only one token accrued" false (Limiter.try_take l ~now:0.5);
  (* A long idle period caps at burst, not rate * dt. *)
  let l2 = Limiter.create ~rate:1. ~burst:2. in
  check_bool "t1" true (Limiter.try_take l2 ~now:0.);
  check_bool "t2" true (Limiter.try_take l2 ~now:0.);
  check_bool "b1" true (Limiter.try_take l2 ~now:100.);
  check_bool "b2" true (Limiter.try_take l2 ~now:100.);
  check_bool "burst cap holds" false (Limiter.try_take l2 ~now:100.);
  (* Stale timestamps are clamped, never refund. *)
  let l3 = Limiter.create ~rate:1. ~burst:1. in
  check_bool "s1" true (Limiter.try_take l3 ~now:5.);
  check_bool "stale now" false (Limiter.try_take l3 ~now:1.);
  Alcotest.check_raises "rate must be positive"
    (Invalid_argument "Limiter.create: rate must be positive") (fun () ->
      ignore (Limiter.create ~rate:0. ~burst:1.));
  Alcotest.check_raises "burst >= 1"
    (Invalid_argument "Limiter.create: burst must be at least 1") (fun () ->
      ignore (Limiter.create ~rate:1. ~burst:0.5))

(* ------------------------------------------------------------------ *)
(* Breaker                                                             *)

let test_breaker () =
  let b = Breaker.create ~failure_threshold:2 ~cooldown:3 () in
  check_bool "closed allows" true (Breaker.allow b);
  Breaker.failure b;
  check_bool "below threshold still closed" true (Breaker.state b = Closed);
  Breaker.success b;
  Breaker.failure b;
  check_bool "success reset the streak" true (Breaker.state b = Closed);
  Breaker.failure b;
  check_bool "threshold trips open" true (Breaker.state b = Open);
  check_int "one open" 1 (Breaker.opens b);
  (* Cooldown counts refused probes; the probe that exhausts it is the
     half-open trial and is admitted. *)
  check_bool "open refuses (1)" false (Breaker.allow b);
  check_bool "open refuses (2)" false (Breaker.allow b);
  check_bool "cooldown spent: trial admitted" true (Breaker.allow b);
  check_bool "half-open" true (Breaker.state b = Half_open);
  Breaker.failure b;
  check_bool "trial failure re-opens" true (Breaker.state b = Open);
  check_int "re-open counted" 2 (Breaker.opens b);
  check_bool "refused again" false (Breaker.allow b);
  check_bool "refused again (2)" false (Breaker.allow b);
  check_bool "second trial" true (Breaker.allow b);
  Breaker.success b;
  check_bool "trial success closes" true (Breaker.state b = Closed);
  check_bool "closed allows again" true (Breaker.allow b);
  Alcotest.check_raises "threshold must be positive"
    (Invalid_argument "Breaker.create: failure_threshold must be positive")
    (fun () -> ignore (Breaker.create ~failure_threshold:0 ()));
  Alcotest.check_raises "cooldown must be positive"
    (Invalid_argument "Breaker.create: cooldown must be positive") (fun () ->
      ignore (Breaker.create ~cooldown:0 ()))

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)

let test_admission () =
  check_bool "none disabled" false (Admission.enabled Admission.none);
  check_bool "none has no limiter" true (Admission.limiter Admission.none = None);
  let a = Admission.make ~max_queue:4 ~rate:2. () in
  check_bool "enabled" true (Admission.enabled a);
  check_bool "burst defaults to rate" true (a.Admission.burst = 2.);
  let low = Admission.make ~rate:0.5 () in
  check_bool "burst floor is 1" true (low.Admission.burst = 1.);
  check_bool "limiter present" true (Admission.limiter a <> None);
  Alcotest.check_raises "max_queue non-negative"
    (Invalid_argument "Admission.make: max_queue must be >= 0") (fun () ->
      ignore (Admission.make ~max_queue:(-1) ()));
  Alcotest.check_raises "max_inflight positive"
    (Invalid_argument "Admission.make: max_inflight must be > 0")
    (fun () -> ignore (Admission.make ~max_inflight:(-1) ()));
  Alcotest.check_raises "rate positive"
    (Invalid_argument "Admission.make: rate must be positive") (fun () ->
      ignore (Admission.make ~rate:0. ()))

let test_shed_order () =
  let v ?(id = 0) ?(group = 2) ?(slack = 1.) () =
    { Admission.id; group; slack }
  in
  let cmp = Admission.shed_order in
  check_bool "larger group sheds first" true
    (cmp (v ~group:5 ()) (v ~group:2 ()) < 0);
  check_bool "looser deadline sheds first" true
    (cmp (v ~slack:9. ()) (v ~slack:1. ()) < 0);
  check_bool "group dominates slack" true
    (cmp (v ~group:5 ~slack:0. ()) (v ~group:2 ~slack:99. ()) < 0);
  check_bool "id breaks ties" true (cmp (v ~id:1 ()) (v ~id:2 ()) < 0);
  check_int "equal victims" 0 (cmp (v ()) (v ()));
  (* pick_victim is the shed_order minimum. *)
  let vs =
    [ v ~id:3 ~group:2 ~slack:5. (); v ~id:1 ~group:4 ~slack:0. ();
      v ~id:2 ~group:4 ~slack:2. () ]
  in
  (match Admission.pick_victim vs with
  | Some { Admission.id; _ } -> check_int "largest group, loosest slack" 2 id
  | None -> Alcotest.fail "non-empty list has a victim");
  check_bool "empty list" true (Admission.pick_victim [] = None);
  (* Total order: antisymmetric and transitive over a small sample. *)
  let sample =
    List.concat_map
      (fun id ->
        List.concat_map
          (fun group ->
            List.map (fun slack -> v ~id ~group ~slack ()) [ 0.; 1.; 2. ])
          [ 2; 3; 4 ])
      [ 0; 1; 2 ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check_bool "antisymmetric" true (compare (cmp a b) (-(cmp b a)) = 0);
          List.iter
            (fun c ->
              if cmp a b <= 0 && cmp b c <= 0 then
                check_bool "transitive" true (cmp a c <= 0))
            sample)
        sample)
    sample

(* ------------------------------------------------------------------ *)
(* Bounded Pareto sampling                                             *)

let test_bounded_pareto () =
  let sample seed n =
    let rng = Prng.create seed in
    List.init n (fun _ -> Prng.bounded_pareto rng ~alpha:1.3 ~lo:0.5 ~hi:20.)
  in
  check_bool "deterministic per seed" true (sample 11 200 = sample 11 200);
  check_bool "seed changes the draw" true (sample 11 200 <> sample 12 200);
  List.iter
    (fun x ->
      check_bool "within [lo, hi]" true (x >= 0.5 && x <= 20.))
    (sample 7 500);
  (* Heavy tail: the top decile actually uses the upper range. *)
  check_bool "tail reaches past 4*lo" true
    (List.exists (fun x -> x > 2.) (sample 7 500));
  let rng = Prng.create 1 in
  check_bool "degenerate lo=hi" true
    (Prng.bounded_pareto rng ~alpha:2. ~lo:3. ~hi:3. = 3.);
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  raises "Prng.bounded_pareto: alpha must be positive" (fun () ->
      ignore (Prng.bounded_pareto rng ~alpha:0. ~lo:1. ~hi:2.));
  raises "Prng.bounded_pareto: lo must be positive" (fun () ->
      ignore (Prng.bounded_pareto rng ~alpha:1. ~lo:0. ~hi:2.));
  raises "Prng.bounded_pareto: hi must be >= lo" (fun () ->
      ignore (Prng.bounded_pareto rng ~alpha:1. ~lo:2. ~hi:1.))

let test_pareto_workload () =
  let g = network 9 in
  let spec =
    Workload.spec ~requests:80
      ~arrivals:(Workload.Pareto { alpha = 1.5; lo = 0.1; hi = 4. })
      ~group_size:(Workload.Pareto_group { alpha = 1.2; lo = 2; hi = 5 })
      ()
  in
  let reqs = Workload.generate (Prng.create 21) g spec in
  check_int "count" 80 (List.length reqs);
  let first = List.hd reqs in
  check_bool "first arrival at 0" true (first.Workload.arrival = 0.);
  let rec gaps = function
    | (a : Workload.request) :: (b : Workload.request) :: rest ->
        let dt = b.Workload.arrival -. a.Workload.arrival in
        check_bool "gap within bounds" true (dt >= 0.1 && dt <= 4.);
        gaps (b :: rest)
    | _ -> ()
  in
  gaps reqs;
  List.iter
    (fun (r : Workload.request) ->
      let k = List.length r.Workload.users in
      check_bool "group size within bounds" true (k >= 2 && k <= 5))
    reqs;
  check_bool "deterministic" true
    (Workload.generate (Prng.create 21) g spec = reqs);
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  raises "Workload.spec: Pareto alpha must be positive" (fun () ->
      ignore
        (Workload.spec
           ~arrivals:(Workload.Pareto { alpha = 0.; lo = 1.; hi = 2. })
           ()));
  raises "Workload.spec: inverted Pareto gap range" (fun () ->
      ignore
        (Workload.spec
           ~arrivals:(Workload.Pareto { alpha = 1.; lo = 2.; hi = 1. })
           ()));
  raises "Workload.spec: group size < 2" (fun () ->
      ignore
        (Workload.spec
           ~group_size:(Workload.Pareto_group { alpha = 1.; lo = 1; hi = 4 })
           ()))

(* ------------------------------------------------------------------ *)
(* Tiered degradation                                                  *)

let test_tiered_validation () =
  Alcotest.check_raises "empty tiers"
    (Invalid_argument "Policy.tiered: no tiers") (fun () ->
      ignore (Policy.tiered []));
  Alcotest.check_raises "non-positive fuel"
    (Invalid_argument "Policy.tiered: fuel must be positive") (fun () ->
      ignore (Policy.tiered ~fuel:0 [ Policy.prim ]))

let test_tiered_degrades () =
  (* Fuel far below what alg3 needs on this network: every serve must
     fall through to the unmetered prim floor. *)
  let g = network ~switches:40 11 in
  let u = Graph.users g in
  let users = [ List.nth u 0; List.nth u 1; List.nth u 2 ] in
  let alg3 = Option.get (Policy.of_name "alg3") in
  let policy, stats = Policy.tiered ~fuel:2 [ alg3; Policy.prim ] in
  let capacity = Capacity.of_graph g in
  (match Policy.route policy g params ~capacity ~users with
  | Some tree ->
      check_bool "degraded tree is valid" true
        (Verify.is_valid g params ~users tree)
  | None -> Alcotest.fail "prim floor must route");
  check_int "exhaustion recorded on tier 0" 1 stats.Policy.exhaustions.(0);
  check_int "serve recorded on tier 1" 1 stats.Policy.serves.(1);
  check_int "last tier index" 1 stats.Policy.last;
  (* With generous fuel the primary tier serves. *)
  let policy, stats = Policy.tiered ~fuel:100_000 [ alg3; Policy.prim ] in
  let capacity = Capacity.of_graph g in
  check_bool "primary serves under generous fuel" true
    (Policy.route policy g params ~capacity ~users <> None);
  check_int "tier 0 serve" 1 stats.Policy.serves.(0);
  check_int "no exhaustion" 0 stats.Policy.exhaustions.(0)

let test_tiered_breaker_skips () =
  (* Persistently starved primary: after [threshold] consecutive
     exhaustions the breaker opens and later attempts skip tier 0
     without burning fuel. *)
  let g = network ~switches:40 12 in
  let u = Graph.users g in
  let users = [ List.nth u 0; List.nth u 1 ] in
  let alg3 = Option.get (Policy.of_name "alg3") in
  let policy, stats =
    Policy.tiered ~fuel:2 ~breaker_threshold:2 ~breaker_cooldown:50
      [ alg3; Policy.prim ]
  in
  for _ = 1 to 6 do
    let capacity = Capacity.of_graph g in
    ignore (Policy.route policy g params ~capacity ~users)
  done;
  check_int "two exhaustions tripped the breaker" 2
    stats.Policy.exhaustions.(0);
  check_int "remaining attempts skipped tier 0" 4 stats.Policy.breaker_skips.(0);
  check_bool "breaker open" true
    (Breaker.state stats.Policy.breakers.(0) = Open);
  check_int "floor served every attempt" 6 stats.Policy.serves.(1)

(* ------------------------------------------------------------------ *)
(* Budgeted solvers leave shared capacity untouched                     *)

let test_budget_rolls_back_capacity () =
  let g = network ~switches:40 13 in
  let u = Graph.users g in
  let users = [ List.nth u 0; List.nth u 1; List.nth u 2 ] in
  let capacity = Capacity.of_graph g in
  let snapshot () =
    List.map (fun s -> Capacity.remaining capacity s) (Graph.switches g)
  in
  let before = snapshot () in
  (match
     Multi_group.prim_for_users g params ~capacity ~users
       ~budget:(Budget.create ~fuel:2)
   with
  | exception Budget.Exhausted _ -> ()
  | Some _ -> Alcotest.fail "fuel 2 cannot route a triple"
  | None -> ());
  check_bool "exhausted run released everything" true (before = snapshot ())

(* ------------------------------------------------------------------ *)
(* Engine under overload: soak property                                 *)

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
          if used.(v) > Graph.qubits g v then
            Alcotest.failf "switch %d oversubscribed: %d > %d" v used.(v)
              (Graph.qubits g v))
        deltas)
    events

let overload_settings =
  [
    Admission.none;
    Admission.make ~max_queue:3 ();
    Admission.make ~max_inflight:2 ();
    Admission.make ~rate:1. ();
    Admission.make ~max_queue:3 ~max_inflight:4 ~rate:2. ~burst:3. ();
  ]

let test_overload_soak_qcheck () =
  let prop seed =
    let g = network ~users:6 ~switches:15 ~qubits:2 ((seed mod 50) + 1) in
    let spec =
      Workload.spec ~requests:30
        ~arrivals:(Workload.Pareto { alpha = 1.4; lo = 0.05; hi = 2. })
        ~group_size:(Workload.Uniform (2, 3))
        ~duration:(1., 5.) ~patience:(0., 8.) ()
    in
    let reqs = Workload.generate (Prng.create seed) g spec in
    let overload = List.nth overload_settings (seed mod 5) in
    let run () =
      (* Fresh tiered policy per run: its breakers and stats are
         stateful. *)
      let policy, tier_stats = Policy.tiered ~fuel:300 [ Policy.prim ] in
      let config =
        Engine.config ~overload ~tier_stats
          ~budget:(if seed mod 2 = 0 then 500 else 4096)
          policy
      in
      Engine.run ~config g params ~requests:reqs
    in
    let report, outcomes = run () in
    assert_never_oversubscribed g outcomes;
    (* A shed request must never also be served; resolutions partition
       the workload. *)
    let count f = List.length (List.filter f outcomes) in
    let shed =
      count (fun o ->
          match o.Engine.resolution with Engine.Shed _ -> true | _ -> false)
    in
    check_int "report agrees with outcomes" report.Engine.shed shed;
    check_int "conservation" report.Engine.arrived
      (report.Engine.served + report.Engine.rejected + report.Engine.expired
     + shed);
    (* Queue depth respects the admission bound. *)
    (match overload.Admission.max_queue with
    | Some m ->
        check_bool "queue depth bounded" true
          (report.Engine.peak_queue_depth <= m)
    | None -> ());
    (* Byte-identical determinism: a second run must produce the same
       report and outcomes. *)
    let report', outcomes' = run () in
    check_bool "identical across runs" true
      (report = report' && outcomes = outcomes');
    true
  in
  let test =
    QCheck.Test.make ~count:40
      ~name:"overload soak: bounded, shed-safe, deterministic"
      QCheck.(int_range 1 10_000)
      prop
  in
  QCheck.Test.check_exn test

let test_inflight_limit () =
  (* Two disjoint pairs on a rich network: with max_inflight 1 the
     second pair must wait for the first lease even though capacity is
     plentiful. *)
  let g = network ~users:8 ~switches:30 ~qubits:8 14 in
  let u = Graph.users g in
  let req id users arrival =
    { Workload.id; users; arrival; duration = 4.;
      deadline = arrival +. 20. }
  in
  let reqs =
    [ req 0 [ List.nth u 0; List.nth u 1 ] 0.;
      req 1 [ List.nth u 2; List.nth u 3 ] 0.5 ]
  in
  let overload = Admission.make ~max_inflight:1 () in
  let config = Engine.config ~overload Policy.prim in
  let report, outcomes = Engine.run ~config g params ~requests:reqs in
  check_int "both served" 2 report.Engine.served;
  match (List.nth outcomes 1).Engine.resolution with
  | Engine.Served { start; _ } ->
      check_bool "second waited for the first lease" true (start >= 4.)
  | _ -> Alcotest.fail "expected request 1 served after waiting"

let test_rate_limit_sheds () =
  let g = network ~users:8 ~switches:30 ~qubits:8 15 in
  let u = Graph.users g in
  let req id arrival =
    { Workload.id; users = [ List.nth u 0; List.nth u 1 ]; arrival;
      duration = 1.; deadline = arrival +. 10. }
  in
  (* Ten arrivals in one instant against a 1/s, burst-1 bucket: only
     the first is admitted. *)
  let reqs = List.init 10 (fun i -> req i 0.) in
  let overload = Admission.make ~rate:1. ~burst:1. () in
  let config = Engine.config ~overload Policy.prim in
  let report, outcomes = Engine.run ~config g params ~requests:reqs in
  check_int "one admitted" 1 report.Engine.served;
  check_int "rest shed" 9 report.Engine.shed;
  List.iteri
    (fun i (o : Engine.outcome) ->
      if i > 0 then
        match o.Engine.resolution with
        | Engine.Shed { reason = Engine.Rate_limit; at } ->
            check_bool "shed at arrival" true (at = 0.)
        | _ -> Alcotest.fail "expected a rate-limit shed")
    outcomes

let test_queue_pressure_sheds_cheapest () =
  (* Star hub with one pair-channel slot: a long-lease holder plus a
     full queue; the newcomer with the biggest group and loosest
     deadline is the victim. *)
  let b = Graph.Builder.create () in
  let user i =
    Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0
      ~x:(float_of_int (100 * i))
      ~y:0.
  in
  let us = List.init 8 user in
  let hub =
    Graph.Builder.add_vertex b ~kind:Graph.Switch ~qubits:2 ~x:350. ~y:500.
  in
  List.iter (fun u -> ignore (Graph.Builder.add_edge b u hub 800.)) us;
  let g = Graph.Builder.freeze b in
  let u = us in
  let pair a b = [ List.nth u a; List.nth u b ] in
  let req id users arrival patience =
    { Workload.id; users; arrival; duration = 50.;
      deadline = arrival +. patience }
  in
  let reqs =
    [
      req 0 (pair 0 1) 0. 100.;
      (* Queue fills with tight-deadline pairs... *)
      req 1 (pair 2 3) 1. 5.;
      req 2 (pair 4 5) 2. 5.;
      (* ...then a loose triple arrives: cheapest to refuse. *)
      {
        Workload.id = 3;
        users = [ List.nth u 6; List.nth u 7; List.nth u 0 ];
        arrival = 3.;
        duration = 50.;
        deadline = 90.;
      };
    ]
  in
  let overload = Admission.make ~max_queue:2 () in
  let config = Engine.config ~overload Policy.prim in
  let report, outcomes = Engine.run ~config g params ~requests:reqs in
  check_int "one shed" 1 report.Engine.shed;
  match (List.nth outcomes 3).Engine.resolution with
  | Engine.Shed { reason = Engine.Queue_pressure; _ } -> ()
  | _ -> Alcotest.fail "expected the loose triple shed under queue pressure"

let () =
  Alcotest.run "overload"
    [
      ( "budget",
        [
          Alcotest.test_case "semantics" `Quick test_budget;
          Alcotest.test_case "capacity rollback" `Quick
            test_budget_rolls_back_capacity;
        ] );
      ("limiter", [ Alcotest.test_case "token bucket" `Quick test_limiter ]);
      ("breaker", [ Alcotest.test_case "state machine" `Quick test_breaker ]);
      ( "admission",
        [
          Alcotest.test_case "limits" `Quick test_admission;
          Alcotest.test_case "shed order" `Quick test_shed_order;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "bounded sampling" `Quick test_bounded_pareto;
          Alcotest.test_case "workload shapes" `Quick test_pareto_workload;
        ] );
      ( "tiered",
        [
          Alcotest.test_case "validation" `Quick test_tiered_validation;
          Alcotest.test_case "degrades to the floor" `Quick
            test_tiered_degrades;
          Alcotest.test_case "breaker skips a failing tier" `Quick
            test_tiered_breaker_skips;
        ] );
      ( "engine",
        [
          Alcotest.test_case "inflight limit" `Quick test_inflight_limit;
          Alcotest.test_case "rate limit sheds" `Quick test_rate_limit_sheds;
          Alcotest.test_case "queue pressure sheds cheapest" `Quick
            test_queue_pressure_sheds_cheapest;
          Alcotest.test_case "soak" `Slow test_overload_soak_qcheck;
        ] );
    ]
