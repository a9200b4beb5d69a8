(* Benchmark harness: reproduces every figure of the paper's evaluation
   (§V) and micro-benchmarks the routing algorithms with Bechamel.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe fig5       # one experiment
     dune exec bench/main.exe headline   # §V-B improvement ratios
     dune exec bench/main.exe traffic    # online traffic engine, per policy
     dune exec bench/main.exe faults     # acceptance under failure, per MTBF
     dune exec bench/main.exe hier       # flat vs hierarchical routing at scale
     dune exec bench/main.exe micro      # Bechamel timings only
     dune exec bench/main.exe snapshot   # perf snapshot -> BENCH_muerp.json

   MUERP_REPLICATIONS=<n> overrides the 20-network averaging for quick
   runs. *)

module Figures = Qnet_experiments.Figures
module Report = Qnet_experiments.Report
module Config = Qnet_experiments.Config
module Scenario = Qnet_scenario.Scenario

let replications =
  match Sys.getenv_opt "MUERP_REPLICATIONS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | _ -> 20)
  | None -> 20

let cfg = Config.create ~replications ()

let print_series s =
  print_endline (Report.series_to_string s);
  print_newline ()

let all_figure_ids =
  [ "fig5"; "fig6a"; "fig6b"; "fig7a"; "fig7b"; "fig8a"; "fig8b" ]

let run_figure id =
  let s =
    match id with
    | "fig5" -> Figures.fig5 ~cfg ()
    | "fig6a" -> Figures.fig6a ~cfg ()
    | "fig6b" -> Figures.fig6b ~cfg ()
    | "fig7a" -> Figures.fig7a ~cfg ()
    | "fig7b" -> Figures.fig7b ~cfg ()
    | "fig8a" -> Figures.fig8a ~cfg ()
    | "fig8b" -> Figures.fig8b ~cfg ()
    | other ->
        Printf.eprintf "unknown figure: %s\nvalid figures: %s\n" other
          (String.concat ", " all_figure_ids);
        exit 1
  in
  print_series s;
  s

let run_headline series =
  let series =
    if series = [] then List.map run_figure all_figure_ids else series
  in
  print_endline
    "Headline improvements (cf. paper §V-B: up to 5347%/3180%/3155% vs \
     N-FUSION, 5068%/3014%/2990% vs E-Q-CAST):";
  print_endline
    (Qnet_util.Table.to_string
       (Report.headlines_table (Figures.headlines series)));
  print_newline ()

(* Extension experiment beyond the paper: all five methods on the two
   reference WAN topologies, averaged over random user placements. *)
let run_reference_nets () =
  let module R = Qnet_experiments.Runner in
  let params = Qnet_core.Params.default in
  let t =
    Qnet_util.Table.create
      ("network"
      :: List.map (fun m -> R.method_name m) R.all_methods)
  in
  let t =
    List.fold_left
      (fun t (name, net) ->
        let rates_for m =
          let samples =
            List.init replications (fun i ->
                let seed = 1 + i in
                let rng = Qnet_util.Prng.create seed in
                let g =
                  Qnet_topology.Reference_nets.build rng net ~n_users:5
                    ~qubits_per_switch:4 ~user_qubits:1_000_000
                in
                let rng_alg = Qnet_util.Prng.create (seed * 7919) in
                R.run_method g params ~rng:rng_alg ~alg2_boost:true m)
          in
          Qnet_util.Stats.mean (Array.of_list samples)
        in
        Qnet_util.Table.add_float_row t name
          (List.map rates_for R.all_methods))
      t Qnet_topology.Reference_nets.all
  in
  print_endline
    "Reference WAN topologies (extension; 5 users placed at random):";
  print_endline (Qnet_util.Table.to_string t);
  print_newline ()

let run_ablations () =
  print_endline "Ablation studies (design-choice sensitivity):";
  print_newline ();
  List.iter
    (fun (title, table) ->
      Printf.printf "%s\n%s\n\n" title (Qnet_util.Table.to_string table))
    (Qnet_experiments.Ablation.all ~cfg ())

(* Online traffic scenario: a fixed dynamic workload (Poisson arrivals,
   groups of 2-4 users, bounded patience) served over the §V-A default
   network by each routing policy.  Deterministic per seed, so the
   throughput numbers land in BENCH_muerp.json as a perf trajectory. *)

let traffic_policies = [ "prim"; "alg3"; "eqcast"; "flow" ]

(* The benches' scenarios: the §V-A network at [seed] serving
   [requests] Poisson arrivals at [rate], everything else at the CLI
   defaults. *)
let scenario ~seed ~requests ~rate =
  let d = Scenario.default in
  {
    d with
    network = { d.network with seed };
    workload =
      { d.workload with requests; arrivals = Qnet_online.Workload.Poisson rate };
  }

let build s =
  match Result.bind (Scenario.validate s) Scenario.build with
  | Ok b -> b
  | Error m -> failwith ("bench scenario: " ^ m)

(* Build and serve a scenario: the report. *)
let serve s =
  let b = build s in
  fst
    (Qnet_online.Engine.run ~config:b.config ?faults:b.fault_model b.net.graph
       b.net.params ~requests:b.requests)

let traffic_scenario ~seed policy_name =
  let s = scenario ~seed ~requests:120 ~rate:1. in
  serve { s with policy = { s.policy with name = policy_name } }

let run_traffic () =
  let module E = Qnet_online.Engine in
  let t =
    Qnet_util.Table.create
      [
        "policy"; "served"; "expired"; "acceptance"; "throughput";
        "mean wait"; "p95 wait"; "mean rate"; "utilization";
      ]
  in
  let t =
    List.fold_left
      (fun t name ->
        (* Average the per-seed SLA metrics over the replication seeds
           (each seed is a fresh network and workload). *)
        let reports =
          List.init replications (fun i -> traffic_scenario ~seed:(1 + i) name)
        in
        let mean f =
          Qnet_util.Stats.mean
            (Array.of_list (List.map f reports))
        in
        Qnet_util.Table.add_row t
          [
            name;
            Printf.sprintf "%.1f" (mean (fun r -> float_of_int r.E.served));
            Printf.sprintf "%.1f" (mean (fun r -> float_of_int r.E.expired));
            Qnet_util.Table.float_cell (mean (fun r -> r.E.acceptance_ratio));
            Qnet_util.Table.float_cell (mean (fun r -> r.E.throughput));
            Qnet_util.Table.float_cell (mean (fun r -> r.E.mean_wait));
            Qnet_util.Table.float_cell (mean (fun r -> r.E.p95_wait));
            Qnet_util.Table.float_cell (mean (fun r -> r.E.mean_rate));
            Qnet_util.Table.float_cell (mean (fun r -> r.E.mean_utilization));
          ])
      t traffic_policies
  in
  print_endline
    "Online traffic (120 requests, Poisson 1/t, default network, per \
     policy):";
  print_endline (Qnet_util.Table.to_string t);
  print_newline ()

(* Chaos benchmark: the prim policy's traffic scenario at a few
   failure rates — acceptance under failure plus recovery latency from
   the online.faults.recovery_seconds histogram.  Fixed seeds keep the
   section deterministic, so it lands in BENCH_muerp.json as the
   fault-tolerance trajectory. *)

let fault_mtbf_levels = [ 40.; 15.; 6. ]

let chaos_scenario ~seed mtbf =
  let s = scenario ~seed ~requests:120 ~rate:1. in
  serve
    {
      s with
      faults = { s.faults with mtbf = Option.value mtbf ~default:0.; mttr = 5. };
    }

let run_faults () =
  let module E = Qnet_online.Engine in
  let t =
    Qnet_util.Table.create
      [
        "mtbf"; "served"; "acceptance"; "faults"; "interrupted"; "recovered";
        "aborted"; "observed mttr";
      ]
  in
  let t =
    List.fold_left
      (fun t mtbf ->
        let r = chaos_scenario ~seed:42 mtbf in
        Qnet_util.Table.add_row t
          [
            (match mtbf with None -> "inf" | Some m -> Printf.sprintf "%g" m);
            string_of_int r.E.served;
            Qnet_util.Table.float_cell r.E.acceptance_ratio;
            string_of_int r.E.faults_injected;
            string_of_int r.E.leases_interrupted;
            string_of_int r.E.leases_recovered;
            string_of_int r.E.leases_aborted;
            Qnet_util.Table.float_cell r.E.mean_time_to_repair;
          ])
      t
      (None :: List.map Option.some fault_mtbf_levels)
  in
  print_endline
    "Acceptance under failure (prim policy, repair recovery, mttr 5):";
  print_endline (Qnet_util.Table.to_string t);
  print_newline ()

(* Overload sweep: the same fixed-seed workload at rising offered
   loads, served under admission limits and a tiered degradation
   policy.  Shed rate, degradation-tier histogram and queue-wait tail
   go into the snapshot as the overload trajectory. *)

let overload_offered_loads = [ 0.5; 1.5; 3.; 6. ]

let overload_scenario ~seed offered_load =
  let s = scenario ~seed ~requests:160 ~rate:offered_load in
  (* Each build makes fresh tier stats: the tiered combinator's
     breakers and histogram are stateful. *)
  serve
    {
      s with
      policy = { s.policy with tiers = Some "alg3,prim"; budget = 400 };
      overload = { s.overload with max_queue = 8; max_inflight = 10; rate = 2. };
    }

let run_overload () =
  let module E = Qnet_online.Engine in
  let t =
    Qnet_util.Table.create
      [
        "offered"; "served"; "shed"; "shed rate"; "degraded"; "exhaustions";
        "p99 wait"; "peak queue";
      ]
  in
  let t =
    List.fold_left
      (fun t load ->
        let r = overload_scenario ~seed:42 load in
        let shed_rate =
          if r.E.arrived = 0 then 0.
          else float_of_int r.E.shed /. float_of_int r.E.arrived
        in
        Qnet_util.Table.add_row t
          [
            Printf.sprintf "%g" load;
            string_of_int r.E.served;
            string_of_int r.E.shed;
            Qnet_util.Table.float_cell shed_rate;
            string_of_int r.E.degraded;
            string_of_int r.E.budget_exhaustions;
            Qnet_util.Table.float_cell r.E.p99_wait;
            string_of_int r.E.peak_queue_depth;
          ])
      t overload_offered_loads
  in
  print_endline
    "Overload control (160 requests, tiers alg3>prim, max-queue 8, \
     max-inflight 10, rate 2):";
  print_endline (Qnet_util.Table.to_string t);
  print_newline ()

(* Hierarchical routing benchmark: flat whole-graph Dijkstra vs the
   qnet_hier corridor router, on the continent-of-Waxmans networks the
   subsystem exists for.  Fixed seeds make the rates, ratios and
   feasible counts deterministic, so they land in BENCH_muerp.json as
   the hier trajectory; the wall times are machine-dependent context.
   The hier speedup compares flat query wall against oracle setup plus
   query wall, so the hierarchy pays for its own construction. *)

let hier_switch_sizes =
  (* The 100k-switch row costs minutes; only run it at full depth. *)
  if replications >= 5 then [ 1_000; 10_000; 100_000 ]
  else [ 1_000; 10_000 ]

type hier_result = {
  h_switches : int;
  h_regions : int;
  h_pairs : int;
  flat_feasible : int;
  hier_feasible : int;
  wall_flat_s : float;
  wall_hier_s : float;  (* queries only; setup is separate *)
  setup_s : float;  (* partition + oracle construction *)
  mean_rate_ratio : float;  (* hier rate / flat rate, pairs both found *)
  min_rate_ratio : float;
}

let hier_scenario n_switches =
  let net =
    Scenario.build_net
      {
        Scenario.default_network with
        seed = 42;
        topology = "continent";
        users = 12;
        switches = n_switches;
        qubits = 6;
      }
  in
  let g = net.graph and params = net.params in
  let users = Array.of_list (Qnet_graph.Graph.users g) in
  let rng = Qnet_util.Prng.create 4242 in
  let pairs =
    List.init 40 (fun _ ->
        let i = Qnet_util.Prng.int rng (Array.length users) in
        let rec pick () =
          let j = Qnet_util.Prng.int rng (Array.length users) in
          if j = i then pick () else j
        in
        (users.(i), users.(pick ())))
  in
  let time f =
    let t0 = Qnet_telemetry.Clock.now_s () in
    let r = f () in
    (Qnet_telemetry.Clock.elapsed_since t0, r)
  in
  (* Fresh capacity per side: both route the same 40 point-to-point
     queries without consuming, so the searches are independent.  The
     batch is large enough to amortise the hier side's one-time lazy
     segment-cache fill, matching how the oracle is used in serving. *)
  let wall_flat_s, flat =
    time (fun () ->
        let capacity = Qnet_core.Capacity.of_graph g in
        List.map
          (fun (src, dst) ->
            Qnet_core.Routing.best_channel g params ~capacity ~src ~dst)
          pairs)
  in
  let setup_s, oracle =
    time (fun () ->
        Qnet_hier.Oracle.create g params (Lazy.force net.partition))
  in
  let wall_hier_s, hier =
    time (fun () ->
        let capacity = Qnet_core.Capacity.of_graph g in
        List.map
          (fun (src, dst) ->
            Qnet_hier.Oracle.best_channel oracle ~capacity ~src ~dst)
          pairs)
  in
  let neg_log (c : Qnet_core.Channel.t) =
    Qnet_util.Logprob.to_neg_log c.Qnet_core.Channel.rate
  in
  let ratios =
    List.filter_map
      (fun (f, h) ->
        match (f, h) with
        (* rate_hier / rate_flat in probability space, ≤ 1 by
           optimality of the flat search. *)
        | Some f, Some h -> Some (exp (neg_log f -. neg_log h))
        | _ -> None)
      (List.combine flat hier)
  in
  let count side = List.length (List.filter Option.is_some side) in
  {
    h_switches = n_switches;
    h_regions = net.regions;
    h_pairs = List.length pairs;
    flat_feasible = count flat;
    hier_feasible = count hier;
    wall_flat_s;
    wall_hier_s;
    setup_s;
    mean_rate_ratio =
      (match ratios with
      | [] -> 1.
      | rs -> Qnet_util.Stats.mean (Array.of_list rs));
    min_rate_ratio = List.fold_left min 1. ratios;
  }

let hier_results () =
  List.map
    (fun n ->
      Printf.printf "hier bench — %d switches\n%!" n;
      hier_scenario n)
    hier_switch_sizes

let run_hier () =
  let t =
    Qnet_util.Table.create
      [
        "switches"; "regions"; "flat ok"; "hier ok"; "flat (s)"; "hier (s)";
        "setup (s)"; "speedup"; "mean ratio"; "min ratio";
      ]
  in
  let t =
    List.fold_left
      (fun t r ->
        Qnet_util.Table.add_row t
          [
            string_of_int r.h_switches;
            string_of_int r.h_regions;
            Printf.sprintf "%d/%d" r.flat_feasible r.h_pairs;
            Printf.sprintf "%d/%d" r.hier_feasible r.h_pairs;
            Printf.sprintf "%.3f" r.wall_flat_s;
            Printf.sprintf "%.3f" r.wall_hier_s;
            Printf.sprintf "%.3f" r.setup_s;
            Qnet_util.Table.float_cell
              (r.wall_flat_s /. (r.setup_s +. r.wall_hier_s));
            Qnet_util.Table.float_cell r.mean_rate_ratio;
            Qnet_util.Table.float_cell r.min_rate_ratio;
          ])
      t (hier_results ())
  in
  print_endline
    "Hierarchical routing (continent topology, 12 users, 40 best-channel \
     queries; ratio = hier rate / flat rate):";
  print_endline (Qnet_util.Table.to_string t);
  print_newline ()

(* Bechamel micro-benchmarks: per-algorithm wall-clock on the default
   network. *)
let micro () =
  let open Bechamel in
  let net = Scenario.build_net { Scenario.default_network with seed = 42 } in
  let g = net.graph and params = net.params in
  let inst = Qnet_core.Muerp.instance ~params g in
  let solve_test name algorithm =
    Test.make ~name
      (Staged.stage (fun () -> ignore (Qnet_core.Muerp.solve algorithm inst)))
  in
  let tests =
    [
      solve_test "alg2-optimal" Qnet_core.Muerp.Optimal;
      solve_test "alg3-conflict-free" Qnet_core.Muerp.Conflict_free;
      solve_test "alg4-prim" Qnet_core.Muerp.Prim_based;
      Test.make ~name:"e-q-cast"
        (Staged.stage (fun () -> ignore (Qnet_baselines.Eqcast.solve g params)));
      Test.make ~name:"n-fusion"
        (Staged.stage (fun () ->
             ignore (Qnet_baselines.Nfusion.solve g params)));
      Test.make ~name:"alg1-single-channel"
        (Staged.stage (fun () ->
             let capacity = Qnet_core.Capacity.of_graph g in
             match Qnet_graph.Graph.users g with
             | src :: dst :: _ ->
                 ignore
                   (Qnet_core.Routing.best_channel g params ~capacity ~src
                      ~dst)
             | _ -> ()));
    ]
  in
  print_endline "Micro-benchmarks (monotonic clock):";
  List.iter
    (fun test ->
      let results =
        Benchmark.all
          (Benchmark.cfg ~quota:(Time.second 0.5) ())
          [ Toolkit.Instance.monotonic_clock ]
          test
      in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:true
             ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              Printf.printf "  %-28s %12.0f ns/run\n%!" name est
          | _ -> Printf.printf "  %-28s (no estimate)\n%!" name)
        ols)
    tests;
  print_newline ()

(* Empirical runtime scaling vs network size: a sanity check of the
   paper's O(|U|²(|E| + |V| log |V|)) complexity analysis. *)
let scaling () =
  let t =
    Qnet_util.Table.create
      [ "switches"; "alg2 (ms)"; "alg3 (ms)"; "alg4 (ms)" ]
  in
  let t =
    List.fold_left
      (fun t n_switches ->
        let spec = Qnet_topology.Spec.create ~n_switches () in
        let g = Qnet_topology.Waxman.generate (Qnet_util.Prng.create 1) spec in
        let inst = Qnet_core.Muerp.instance g in
        let time alg =
          let reps = 5 in
          let t0 = Qnet_telemetry.Clock.now_s () in
          for _ = 1 to reps do
            ignore (Qnet_core.Muerp.solve alg inst)
          done;
          Qnet_telemetry.Clock.elapsed_since t0 /. float_of_int reps *. 1000.
        in
        Qnet_util.Table.add_row t
          [
            string_of_int n_switches;
            Printf.sprintf "%.2f" (time Qnet_core.Muerp.Optimal);
            Printf.sprintf "%.2f" (time Qnet_core.Muerp.Conflict_free);
            Printf.sprintf "%.2f" (time Qnet_core.Muerp.Prim_based);
          ])
      t
      [ 25; 50; 100; 200; 400 ]
  in
  print_endline "Runtime scaling with network size (10 users, degree 6):";
  print_endline (Qnet_util.Table.to_string t);
  print_newline ()

(* Perf snapshot: run every method over the default configuration with
   telemetry on, then write a machine-readable BENCH_muerp.json —
   method-level mean rate / mean elapsed / latency quantiles plus every
   registry counter.  This file seeds the perf trajectory that later
   optimisation PRs report against. *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jstr s = "\"" ^ json_escape s ^ "\""
let jfloat f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let jobj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) fields)
  ^ "}"

let jarr items = "[" ^ String.concat ", " items ^ "]"

let jhistogram (s : Qnet_telemetry.Metrics.Histogram.summary) =
  let open Qnet_telemetry.Metrics.Histogram in
  jobj
    [
      ("count", string_of_int s.count);
      ("sum_s", jfloat s.sum);
      ("min_s", jfloat s.min);
      ("max_s", jfloat s.max);
      ("mean_s", jfloat s.mean);
      ("p50_s", jfloat s.p50);
      ("p90_s", jfloat s.p90);
      ("p95_s", jfloat s.p95);
      ("p99_s", jfloat s.p99);
    ]

(* Chaos section of the snapshot: one fixed-seed scenario per failure
   rate, recovery latency read off the telemetry histogram as a
   before/after delta. *)
let faults_section () =
  let module E = Qnet_online.Engine in
  let module Tm = Qnet_telemetry.Metrics in
  let h_recovery = Tm.histogram "online.faults.recovery_seconds" in
  List.map
    (fun mtbf ->
      let before = Tm.Histogram.summarize h_recovery in
      let r = chaos_scenario ~seed:42 mtbf in
      let after = Tm.Histogram.summarize h_recovery in
      let recoveries = after.Tm.Histogram.count - before.Tm.Histogram.count in
      let mean_recovery_s =
        if recoveries = 0 then 0.
        else
          (after.Tm.Histogram.sum -. before.Tm.Histogram.sum)
          /. float_of_int recoveries
      in
      jobj
        [
          ("mtbf", match mtbf with None -> "null" | Some m -> jfloat m);
          ("mttr", match mtbf with None -> "null" | Some _ -> jfloat 5.);
          ("served", string_of_int r.E.served);
          ("acceptance_ratio", jfloat r.E.acceptance_ratio);
          ("faults_injected", string_of_int r.E.faults_injected);
          ("leases_interrupted", string_of_int r.E.leases_interrupted);
          ("leases_recovered", string_of_int r.E.leases_recovered);
          ("leases_aborted", string_of_int r.E.leases_aborted);
          ("mean_time_to_repair_s", jfloat r.E.mean_time_to_repair);
          ("mean_lost_service_s", jfloat r.E.mean_lost_service);
          ("recoveries_timed", string_of_int recoveries);
          ("mean_recovery_wall_s", jfloat mean_recovery_s);
        ])
    (None :: List.map Option.some fault_mtbf_levels)

let overload_section () =
  let module E = Qnet_online.Engine in
  List.map
    (fun load ->
      let r = overload_scenario ~seed:42 load in
      let shed_rate =
        if r.E.arrived = 0 then 0.
        else float_of_int r.E.shed /. float_of_int r.E.arrived
      in
      jobj
        [
          ("offered_load", jfloat load);
          ("arrived", string_of_int r.E.arrived);
          ("served", string_of_int r.E.served);
          ("shed", string_of_int r.E.shed);
          ("shed_rate", jfloat shed_rate);
          ("degraded", string_of_int r.E.degraded);
          ("budget_exhaustions", string_of_int r.E.budget_exhaustions);
          ("breaker_opens", string_of_int r.E.breaker_opens);
          ( "tier_served",
            jobj
              (List.map
                 (fun (name, n) -> (name, string_of_int n))
                 r.E.tier_served) );
          ("acceptance_ratio", jfloat r.E.acceptance_ratio);
          ("p99_queue_wait_s", jfloat r.E.p99_wait);
          ("peak_queue_depth", string_of_int r.E.peak_queue_depth);
        ])
    overload_offered_loads

(* Flow-bound section: the LP optimality-gap trajectory.  One
   fixed-seed instance per topology (the default Waxman plus each
   reference WAN), every method's achieved rate against the flow LP
   ceiling.  Everything here is seed-pinned and wall-time-free, so the
   guard can demand bitwise-identical gaps run to run; a gap below
   zero would be a bound-soundness bug, and the guard rejects it. *)

type flow_row = {
  f_topology : string;
  f_structure_neg_log : float;  (* structure-only bound (all methods) *)
  f_bound_neg_log : float;  (* capacity-aware bound (tighter) *)
  f_bound_rate : float;  (* exp(-bound): the provable rate ceiling *)
  f_pivots : int;
  f_gaps : (string * float) list;
  f_rounding_neg_log : float;
  f_rounding_verified : bool;
}

let flow_networks () =
  ( "waxman-default",
    (Scenario.build_net { Scenario.default_network with seed = 42 }).graph )
  :: List.map
       (fun (name, net) ->
         ( name,
           Qnet_topology.Reference_nets.build (Qnet_util.Prng.create 1) net
             ~n_users:5 ~qubits_per_switch:4 ~user_qubits:1_000_000 ))
       Qnet_topology.Reference_nets.all

let flow_row (name, g) =
  let module Lp = Qnet_flow.Lp in
  let module C = Qnet_core.Muerp in
  let params = Qnet_core.Params.default in
  let users = Qnet_graph.Graph.users g in
  let neg_log_of = function Lp.Bound b -> b.Lp.neg_log | _ -> infinity in
  let structure = neg_log_of (Lp.relax ~capacity_rows:false g params ~users) in
  let cap_result = Lp.relax g params ~users in
  let cap = neg_log_of cap_result in
  let pivots, bound_rate =
    match cap_result with
    | Lp.Bound b -> (b.Lp.pivots, b.Lp.rate)
    | _ -> (0, 0.)
  in
  let inst = C.instance ~params g in
  let gap_of bound achieved =
    C.optimality_gap ~bound_neg_log:bound ~achieved_neg_log:achieved
  in
  let method_gap alg =
    let o = C.solve ~rng:(Qnet_util.Prng.create 7) alg inst in
    (* Capacity-oblivious outcomes (Algorithm 2 past the sufficient
       condition) compare against the structure-only bound; everything
       else against the tighter capacity-aware bound. *)
    let bound = if C.outcome_capacity_ok inst o then cap else structure in
    gap_of bound o.C.neg_log_rate
  in
  let eqcast_neg_log =
    match Qnet_baselines.Eqcast.solve g params with
    | Some t -> Qnet_core.Ent_tree.rate_neg_log t
    | None -> infinity
  in
  let rounding_neg_log, rounding_verified =
    match cap_result with
    | Lp.Bound bound -> (
        let capacity = Qnet_core.Capacity.of_graph g in
        match
          Qnet_flow.Rounding.round ~seed:42 g params ~capacity ~users ~bound
        with
        | Some t ->
            ( Qnet_core.Ent_tree.rate_neg_log t,
              Qnet_core.Verify.is_valid g params ~users t )
        | None -> (infinity, true))
    | _ -> (infinity, true)
  in
  {
    f_topology = name;
    f_structure_neg_log = structure;
    f_bound_neg_log = cap;
    f_bound_rate = bound_rate;
    f_pivots = pivots;
    f_gaps =
      [
        ("gap_alg2", method_gap C.Optimal);
        ("gap_alg3", method_gap C.Conflict_free);
        ("gap_alg4", method_gap C.Prim_based);
        ("gap_eqcast", gap_of cap eqcast_neg_log);
        ("gap_flow", gap_of cap rounding_neg_log);
      ];
    f_rounding_neg_log = rounding_neg_log;
    f_rounding_verified = rounding_verified;
  }

let flow_rows () = List.map flow_row (flow_networks ())

let run_flow () =
  let rows = flow_rows () in
  let t =
    Qnet_util.Table.create
      ([ "topology"; "lp bound"; "rate ceiling"; "pivots" ]
      @ List.map fst (List.hd rows).f_gaps
      @ [ "verified" ])
  in
  let t =
    List.fold_left
      (fun t r ->
        Qnet_util.Table.add_row t
          ([
             r.f_topology;
             Printf.sprintf "%.4f" r.f_bound_neg_log;
             Printf.sprintf "%.6g" r.f_bound_rate;
             string_of_int r.f_pivots;
           ]
          @ List.map (fun (_, gap) -> Printf.sprintf "%.4f" gap) r.f_gaps
          @ [ string_of_bool r.f_rounding_verified ]))
      t rows
  in
  print_endline
    "Flow LP bound vs achieved rates (gap = 1 - achieved/ceiling):";
  print_endline (Qnet_util.Table.to_string t);
  print_newline ()

let flow_section () =
  List.map
    (fun r ->
      jobj
        ([
           ("topology", jstr r.f_topology);
           ("structure_neg_log", jfloat r.f_structure_neg_log);
           ("bound_neg_log", jfloat r.f_bound_neg_log);
           ("bound_rate", jfloat r.f_bound_rate);
           ("pivots", string_of_int r.f_pivots);
         ]
        @ List.map (fun (k, gap) -> (k, jfloat gap)) r.f_gaps
        @ [
            ("rounding_neg_log", jfloat r.f_rounding_neg_log);
            ("rounding_verified", string_of_bool r.f_rounding_verified);
          ]))
    (flow_rows ())

(* Parallel-runtime benchmark: the same fixed-seed Monte-Carlo and
   replication workloads at several --jobs levels.  Wall time and
   speedup go into the snapshot as the perf trajectory; the equality
   flags assert the determinism contract (estimates, aggregates and
   merged telemetry counters identical at every level). *)

let parallel_jobs_levels = [ 1; 2; 4 ]

let counter_values () =
  let module Tm = Qnet_telemetry.Metrics in
  List.filter_map
    (fun (name, v) ->
      match v with Tm.Counter_v n -> Some (name, n) | _ -> None)
    (Tm.snapshot ())

(* Per-run counter increments, robust to metrics first registered
   mid-run. *)
let counter_delta ~before ~after =
  List.map
    (fun (name, n) ->
      (name, n - Option.value ~default:0 (List.assoc_opt name before)))
    after

let timed f =
  let t0 = Qnet_telemetry.Clock.now_s () in
  let result = f () in
  (Qnet_telemetry.Clock.elapsed_since t0, result)

(* Runs [work] at each jobs level (pool creation excluded from the
   timing) and returns [(jobs, wall_s, result, counter_delta)]. *)
let bench_jobs_levels work =
  List.map
    (fun jobs ->
      let before = counter_values () in
      let wall, result =
        if jobs = 1 then timed (fun () -> work None)
        else
          Qnet_util.Pool.with_pool ~jobs (fun pool ->
              timed (fun () -> work (Some pool)))
      in
      (jobs, wall, result, counter_delta ~before ~after:(counter_values ())))
    parallel_jobs_levels

let jruns runs =
  let _, serial_wall, _, _ = List.hd runs in
  jarr
    (List.map
       (fun (jobs, wall, _, _) ->
         jobj
           [
             ("jobs", string_of_int jobs);
             ("wall_s", jfloat wall);
             ("speedup", jfloat (serial_wall /. wall));
           ])
       runs)

let all_equal project runs =
  let _, _, first, _ = List.hd runs in
  List.for_all (fun (_, _, r, _) -> project r = project first) runs

let counters_equal runs =
  let _, _, _, first = List.hd runs in
  List.for_all (fun (_, _, _, d) -> d = first) runs

let parallel_section () =
  let module R = Qnet_experiments.Runner in
  (* Monte-Carlo workload: one routed tree on the default network,
     trial count scaled with MUERP_REPLICATIONS so smoke runs stay
     quick. *)
  let net = Scenario.build_net { Scenario.default_network with seed = 42 } in
  let g = net.graph and params = net.params in
  let tree =
    match
      (Qnet_core.Muerp.solve Qnet_core.Muerp.Conflict_free
         (Qnet_core.Muerp.instance ~params g))
        .Qnet_core.Muerp.tree
    with
    | Some t -> t
    | None -> failwith "parallel bench: default instance infeasible"
  in
  let trials = replications * 20_000 in
  Printf.printf "parallel bench — Monte-Carlo, %d trials\n%!" trials;
  let mc_runs =
    bench_jobs_levels (fun pool ->
        let rng = Qnet_util.Prng.create 4242 in
        Qnet_sim.Monte_carlo.estimate_rate ?pool rng g params tree ~trials)
  in
  Printf.printf "parallel bench — sweep, %d replications\n%!" replications;
  let sweep_runs =
    bench_jobs_levels (fun pool -> R.mean_rates (R.run_config ?pool cfg))
  in
  jobj
    [
      ( "jobs_levels",
        jarr (List.map string_of_int parallel_jobs_levels) );
      ( "monte_carlo",
        jobj
          [
            ("trials", string_of_int trials);
            ( "estimate_equal",
              string_of_bool
                (all_equal
                   (fun (e : Qnet_sim.Monte_carlo.estimate) ->
                     (e.successes, e.p_hat))
                   mc_runs) );
            ("counters_equal", string_of_bool (counters_equal mc_runs));
            ("runs", jruns mc_runs);
          ] );
      ( "sweep",
        jobj
          [
            ("replications", string_of_int replications);
            ("mean_rates_equal", string_of_bool (all_equal Fun.id sweep_runs));
            ("counters_equal", string_of_bool (counters_equal sweep_runs));
            ("runs", jruns sweep_runs);
          ] );
    ]

(* Resilience: checkpoint-cadence overhead on a fixed faulty scenario,
   restored-report equality at every cut (the crash-recovery drill), and
   live-reconfiguration recovery counts.  Counts, byte sizes and
   equality flags are fixed-seed deterministic; only the wall times and
   the derived overhead vary run to run. *)
let resilience_section () =
  let module E = Qnet_online.Engine in
  let module Checkpoint = Qnet_resilience.Checkpoint in
  let module Journal = Qnet_resilience.Journal in
  let s = scenario ~seed:42 ~requests:200 ~rate:1. in
  let s = { s with faults = { s.faults with mtbf = 25.; mttr = 5. } } in
  let b = build s in
  let g = b.net.graph and params = b.net.params and reqs = b.requests in
  let faults = Option.get b.fault_model and config = b.config in
  let every = 10. in
  let wall_plain, (plain_report, _) =
    timed (fun () -> E.run ~config ~faults g params ~requests:reqs)
  in
  let cuts = ref 0 in
  let snapshot_bytes = ref 0 in
  let wall_ckpt, (ckpt_report, _) =
    timed (fun () ->
        E.run ~config ~faults
          ~checkpoint:
            ( every,
              fun _ snap ->
                incr cuts;
                snapshot_bytes := String.length (Checkpoint.encode snap) )
          g params ~requests:reqs)
  in
  let pct w =
    if wall_plain <= 0. then 0. else (w -. wall_plain) /. wall_plain *. 100.
  in
  let drill =
    Qnet_resilience.Drill.crash_restore ~config ~faults ~every g params
      ~requests:reqs
  in
  let switch =
    match Qnet_graph.Graph.switches g with
    | s :: _ -> s
    | [] -> failwith "resilience bench: network has no switches"
  in
  let reconfig =
    [
      { Qnet_online.Reconfig.time = 20.;
        change = Qnet_online.Reconfig.Switch_leave switch };
      { Qnet_online.Reconfig.time = 35.;
        change = Qnet_online.Reconfig.Provision { switch; qubits = 2 } };
      { Qnet_online.Reconfig.time = 60.;
        change = Qnet_online.Reconfig.Switch_join switch };
    ]
  in
  let reconfig_report, _ =
    E.run ~config ~faults ~reconfig g params ~requests:reqs
  in
  (* Durable cuts plus the write-ahead journal, with real file writes,
     at two cadences.  Bytes written per run (cuts plus every journal)
     are the deterministic overhead measure; wall times ride along
     informationally.  Each run is then recovered from its own files and
     replayed under the journal verifier. *)
  let fsize p =
    let ic = open_in_bin p in
    let n = in_channel_length ic in
    close_in ic;
    n
  in
  let cadence_row dt =
    let dir = Filename.temp_dir "muerp-bench-resil" "" in
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun n ->
            try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
          (try Sys.readdir dir with Sys_error _ -> [||]);
        try Sys.rmdir dir with Sys_error _ -> ())
      (fun () ->
        let path = Filename.concat dir "bench.ckpt" in
        let jp = Filename.concat dir "bench.journal" in
        let writer = Checkpoint.writer ~path ~config:"bench" ~journal:jp () in
        let bytes = ref 0 and snaps = ref [] in
        (* A cut restarts the journal, so bill the outgoing journal's
           bytes first. *)
        let journal_tally () =
          if Sys.file_exists jp then bytes := !bytes + fsize jp
        in
        let wall, _ =
          timed (fun () ->
              E.run ~config ~faults
                ~on_transition:(Checkpoint.on_transition writer)
                ~checkpoint:
                  ( dt,
                    fun _ snap ->
                      journal_tally ();
                      (match Checkpoint.cut writer snap with
                      | Ok _ -> bytes := !bytes + fsize path
                      | Error m -> failwith m);
                      snaps := snap :: !snaps )
                g params ~requests:reqs)
        in
        Checkpoint.close writer;
        journal_tally ();
        let sum f =
          List.fold_left (fun acc s -> acc + String.length (f s)) 0 !snaps
        in
        let sexp_ratio =
          float_of_int
            (sum (fun s -> Qnet_util.Sexp.to_string (E.snapshot_to_sexp s)))
          /. float_of_int (max 1 (sum Checkpoint.encode))
        in
        let restored_equal, replay_equal, warnings =
          match Checkpoint.recover ~path ~config:"bench" ~journal:jp () with
          | Error m -> failwith ("bench recovery failed: " ^ m)
          | Ok r ->
              let v = Journal.verifier r.Checkpoint.r_journal in
              let report, _ =
                E.run ~config ~faults
                  ~on_transition:(Journal.observe v)
                  ~restore_from:r.Checkpoint.r_snapshot g params ~requests:reqs
              in
              ( report = plain_report,
                Result.is_ok (Journal.finish v),
                List.length r.Checkpoint.r_warnings )
        in
        jobj
          [
            ("cadence_s", jfloat dt);
            ("cuts", string_of_int (List.length !snaps));
            ("bytes", string_of_int !bytes);
            ("wall_s", jfloat wall);
            ("overhead_pct", jfloat (pct wall));
            ("sexp_ratio", jfloat sexp_ratio);
            ("restored_report_equal", string_of_bool restored_equal);
            ("journal_replay_equal", string_of_bool replay_equal);
            ("recovery_warnings", string_of_int warnings);
          ])
  in
  let cadence = List.map cadence_row [ 10.; 30. ] in
  jobj
    [
      ("requests", string_of_int s.workload.requests);
      ("checkpoint_every", jfloat every);
      ("checkpoints", string_of_int !cuts);
      ("snapshot_bytes", string_of_int !snapshot_bytes);
      ("wall_plain_s", jfloat wall_plain);
      ("wall_checkpointed_s", jfloat wall_ckpt);
      ("checkpoint_overhead_pct", jfloat (pct wall_ckpt));
      ( "checkpointed_report_equal",
        string_of_bool (ckpt_report = plain_report) );
      ( "drill_checkpoints",
        string_of_int drill.Qnet_resilience.Drill.checkpoints );
      ( "drill_mismatches",
        string_of_int
          (List.length drill.Qnet_resilience.Drill.mismatches) );
      ( "restored_reports_equal",
        string_of_bool (Qnet_resilience.Drill.passed drill) );
      ("reconfig_events", string_of_int (List.length reconfig));
      ( "reconfig_applied",
        string_of_int reconfig_report.E.reconfig_applied );
      ( "reconfig_recovered",
        string_of_int reconfig_report.E.reconfig_recovered );
      ("reconfig_served", string_of_int reconfig_report.E.served);
      ( "reconfig_acceptance_ratio",
        jfloat reconfig_report.E.acceptance_ratio );
      ("cadence", jarr cadence);
    ]

let snapshot path =
  let module R = Qnet_experiments.Runner in
  let module Tm = Qnet_telemetry.Metrics in
  (* Open the output before the (minutes-long) harness so an
     unwritable path fails immediately. *)
  let oc =
    try open_out path
    with Sys_error msg ->
      Printf.eprintf "cannot write snapshot: %s\n" msg;
      exit 1
  in
  Tm.set_enabled true;
  Tm.reset ();
  Printf.printf "perf snapshot — %d replications per method\n%!" replications;
  let aggregates = R.run_config cfg in
  (* Online traffic throughput: one fixed-seed scenario per policy, so
     the JSON trajectory is deterministic run to run. *)
  let traffic =
    List.map
      (fun name ->
        let module E = Qnet_online.Engine in
        let r = traffic_scenario ~seed:42 name in
        jobj
          [
            ("policy", jstr name);
            ("served", string_of_int r.E.served);
            ("rejected", string_of_int r.E.rejected);
            ("expired", string_of_int r.E.expired);
            ("acceptance_ratio", jfloat r.E.acceptance_ratio);
            ("throughput", jfloat r.E.throughput);
            ("mean_wait", jfloat r.E.mean_wait);
            ("p95_wait", jfloat r.E.p95_wait);
            ("mean_rate", jfloat r.E.mean_rate);
            ("makespan", jfloat r.E.makespan);
            ("peak_qubits_in_use", string_of_int r.E.peak_qubits_in_use);
            ("retries", string_of_int r.E.retries);
            ("mean_utilization", jfloat r.E.mean_utilization);
          ])
      traffic_policies
  in
  let faults = faults_section () in
  let overload = overload_section () in
  let hier =
    List.map
      (fun r ->
        jobj
          [
            ("switches", string_of_int r.h_switches);
            ("regions", string_of_int r.h_regions);
            ("pairs", string_of_int r.h_pairs);
            ("flat_feasible", string_of_int r.flat_feasible);
            ("hier_feasible", string_of_int r.hier_feasible);
            ("wall_flat_s", jfloat r.wall_flat_s);
            ("wall_hier_s", jfloat r.wall_hier_s);
            ("setup_s", jfloat r.setup_s);
            ( "speedup",
              jfloat (r.wall_flat_s /. (r.setup_s +. r.wall_hier_s)) );
            ("mean_rate_ratio", jfloat r.mean_rate_ratio);
            ("min_rate_ratio", jfloat r.min_rate_ratio);
          ])
      (hier_results ())
  in
  let flow = flow_section () in
  let parallel = parallel_section () in
  let resilience = resilience_section () in
  let registry = List.filter (fun (_, v) -> Tm.touched v) (Tm.snapshot ()) in
  let methods =
    List.map
      (fun (a : R.aggregate) ->
        let name = R.method_name a.method_ in
        let hist =
          Tm.Histogram.summarize
            (Tm.histogram
               ("runner." ^ String.lowercase_ascii name ^ ".seconds"))
        in
        jobj
          [
            ("name", jstr name);
            ("mean_rate", jfloat a.mean_rate);
            ( "mean_feasible_rate",
              match a.mean_feasible_rate with
              | None -> "null"
              | Some r -> jfloat r );
            ("feasible", string_of_int a.feasible);
            ("replications", string_of_int a.replications);
            ("mean_elapsed_s", jfloat a.mean_elapsed_s);
            ("wall_time", jhistogram hist);
          ])
      aggregates
  in
  let counters, gauges, histograms =
    List.fold_left
      (fun (cs, gs, hs) (name, v) ->
        match v with
        | Tm.Counter_v n -> ((name, string_of_int n) :: cs, gs, hs)
        | Tm.Gauge_v x -> (cs, (name, jfloat x) :: gs, hs)
        | Tm.Histogram_v s -> (cs, gs, (name, jhistogram s) :: hs))
      ([], [], []) (List.rev registry)
  in
  let doc =
    jobj
      [
        ("schema", jstr "muerp-bench-snapshot/12");
        ("replications", string_of_int replications);
        ("methods", jarr methods);
        ("traffic", jarr traffic);
        ("faults", jarr faults);
        ("overload", jarr overload);
        ("hier", jarr hier);
        ("flow", jarr flow);
        ("parallel", parallel);
        ("resilience", resilience);
        ("counters", jobj counters);
        ("gauges", jobj gauges);
        ("histograms", jobj histograms);
      ]
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc doc;
      output_char oc '\n');
  Printf.printf "wrote %s\n%!" path

let write_csvs dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun id ->
      let s =
        match id with
        | "fig5" -> Figures.fig5 ~cfg ()
        | "fig6a" -> Figures.fig6a ~cfg ()
        | "fig6b" -> Figures.fig6b ~cfg ()
        | "fig7a" -> Figures.fig7a ~cfg ()
        | "fig7b" -> Figures.fig7b ~cfg ()
        | "fig8a" -> Figures.fig8a ~cfg ()
        | _ -> Figures.fig8b ~cfg ()
      in
      let path = Filename.concat dir (id ^ ".csv") in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Report.series_to_csv s);
          output_char oc '\n');
      Printf.printf "wrote %s\n%!" path)
    all_figure_ids

let () =
  (* The traffic scenarios resolve the flow policy by name; register it
     before any dispatch (selective linking drops unreferenced module
     initialisers). *)
  Qnet_flow.Serve.register ();
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "csv"; dir ] -> write_csvs dir
  | [ "snapshot" ] -> snapshot "BENCH_muerp.json"
  | [ "snapshot"; path ] -> snapshot path
  | [] ->
      Printf.printf
        "MUERP benchmark suite — %d replications per point (set \
         MUERP_REPLICATIONS to override)\n\n%!"
        replications;
      let series = List.map run_figure all_figure_ids in
      run_headline series;
      run_reference_nets ();
      run_ablations ();
      run_traffic ();
      run_faults ();
      run_overload ();
      run_hier ();
      run_flow ();
      scaling ();
      micro ()
  | [ "headline" ] -> run_headline []
  | [ "reference" ] -> run_reference_nets ()
  | [ "ablation" ] -> run_ablations ()
  | [ "traffic" ] -> run_traffic ()
  | [ "faults" ] -> run_faults ()
  | [ "overload" ] -> run_overload ()
  | [ "hier" ] -> run_hier ()
  | [ "flow" ] -> run_flow ()
  | [ "scaling" ] -> scaling ()
  | [ "micro" ] -> micro ()
  | ids -> List.iter (fun id -> ignore (run_figure id)) ids
