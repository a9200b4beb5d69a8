(* muerp — command-line front end for the MUERP library.

   Subcommands:
     solve       route one instance with every method and print the trees
     topology    generate a network and print its composition
     experiment  reproduce a paper figure (fig5 .. fig8b, or "all")
     simulate    Monte-Carlo-validate the analytic rate of a solution
     sweep       one-dimensional parameter sweep with a chosen method
     traffic     serve a dynamic request workload with the online engine *)

open Cmdliner
open Cmdliner.Term.Syntax
module Graph = Qnet_graph.Graph
module Spec = Qnet_topology.Spec
module Scenario = Qnet_scenario.Scenario
open Qnet_core

(* ------------------------------------------------------------------ *)
(* Shared command-line terms                                           *)

(* The one seed term every subcommand shares: topology generation,
   workload sampling and experiment replication seeds all derive from
   it, so a whole invocation is reproducible from this single flag. *)
let seed_t =
  let doc =
    "PRNG seed: topology generation, synthetic workloads and every \
     random choice derive from it, so equal seeds reproduce the run."
  in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let users_t =
  let doc = "Number of quantum users." in
  Arg.(
    value
    & opt int Scenario.default_network.users
    & info [ "users"; "u" ] ~docv:"N" ~doc)

let switches_t =
  let doc = "Number of quantum switches." in
  Arg.(
    value
    & opt int Scenario.default_network.switches
    & info [ "switches"; "s" ] ~docv:"N" ~doc)

let degree_t =
  let doc = "Target average vertex degree." in
  Arg.(
    value
    & opt float Scenario.default_network.degree
    & info [ "degree"; "d" ] ~docv:"D" ~doc)

let qubits_t =
  let doc = "Memory qubits per switch." in
  Arg.(
    value
    & opt int Scenario.default_network.qubits
    & info [ "qubits"; "Q" ] ~docv:"Q" ~doc)

let q_t =
  let doc = "BSM swap success probability." in
  Arg.(
    value
    & opt float Scenario.default_network.q
    & info [ "swap-rate"; "q" ] ~docv:"Q" ~doc)

let alpha_t =
  let doc = "Fiber attenuation constant (per km-unit)." in
  Arg.(
    value
    & opt float Scenario.default_network.alpha
    & info [ "alpha" ] ~docv:"A" ~doc)

let topology_t =
  let doc =
    "Topology generator: waxman, watts-strogatz, volchenkov, grid or \
     continent (a grid of Waxman regions wired by long-haul fibers; \
     see --regions)."
  in
  Arg.(value & opt string "waxman" & info [ "topology"; "t" ] ~docv:"KIND" ~doc)

(* Hierarchical routing (see DESIGN.md, "Hierarchical routing"):
   --hier routes through the qnet_hier oracle — region partition,
   contracted gateway skeleton, corridor-restricted exact search —
   instead of whole-graph Dijkstra.  --regions sizes both the continent
   generator's tile grid and the k-means fallback partition. *)
let hier_t =
  let doc =
    "Route hierarchically: partition the network into regions, route a \
     contracted gateway skeleton, and re-run the exact search only \
     inside the chosen corridor.  Feasibility-equivalent to flat \
     routing; built for networks too large for whole-graph Dijkstra."
  in
  Arg.(value & flag & info [ "hier" ] ~doc)

let regions_t =
  let doc =
    "Region count: tiles of the $(b,continent) topology and clusters \
     of the k-means partition that --hier derives on other topologies. \
     0 (the default) autotunes to a square-root rule on the switch \
     count (about sqrt(n)/2 regions, at least 4)."
  in
  Arg.(value & opt int 0 & info [ "regions" ] ~docv:"N" ~doc)

(* The network flags of every subcommand that generates a network.
   [users] is a term so [groups] can derive the count from its own
   flags; subcommands that never route leave [physics] at the paper's
   q and alpha, and those without --regions keep the continent
   generator's own tile count. *)
let network_t ?(users = users_t)
    ?(physics =
      let+ q = q_t and+ alpha = alpha_t in
      (q, alpha))
    ?(regions = Term.const Qnet_topology.Continent.default_params.regions) ()
    =
  let+ seed = seed_t
  and+ users = users
  and+ switches = switches_t
  and+ degree = degree_t
  and+ qubits = qubits_t
  and+ q, alpha = physics
  and+ topology = topology_t
  and+ regions = regions in
  { Scenario.seed; topology; users; switches; degree; qubits; q; alpha; regions }

let paper_physics = Term.const (Params.default.q, Params.default.alpha)

(* A bad setting is the caller's to fix: name it and exit 2, before
   anything reaches stdout. *)
let or_exit cmd = function
  | Ok x -> x
  | Error msg ->
      Printf.eprintf "muerp %s: %s\n" cmd msg;
      exit 2

(* A subcommand's own setting, outside any Scenario part. *)
let check cmd flag cond reason =
  if not cond then or_exit cmd (Error (flag ^ ": " ^ reason))

let network_or_exit cmd network =
  Scenario.build_net (or_exit cmd (Scenario.validate_network network))

let verbose_t =
  let doc = "Enable library debug logging on stderr." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

(* Parallelism: replication/trial loops fan out over a domain pool.
   Results are deterministic — identical at every jobs level — because
   task seeding never depends on the schedule (see DESIGN.md,
   "Parallel runtime"). *)
let jobs_t =
  let doc =
    "Worker domains for replication and Monte-Carlo loops.  Results are \
     identical at every $(docv); 0 means one per CPU core."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"JOBS" ~doc)

(* [None] when jobs = 1 so serial runs take the pool-free code path. *)
let with_jobs jobs f =
  let jobs =
    if jobs = 0 then Qnet_util.Pool.recommended_jobs ()
    else if jobs < 0 then (
      prerr_endline "jobs must be >= 0";
      exit 1)
    else jobs
  in
  if jobs = 1 then f None
  else Qnet_util.Pool.with_pool ~jobs (fun pool -> f (Some pool))

let apply_verbose verbose =
  if verbose then Qnet_util.Log.setup ~level:(Some Logs.Debug)

(* Telemetry: --metrics enables the process-wide registry before the
   work runs and prints it afterwards (work counters, wall-time
   histograms with quantiles).  See the Telemetry section of DESIGN.md
   for what each metric means. *)
let metrics_t =
  let doc =
    "Collect telemetry while running and print the metrics registry \
     afterwards.  $(docv) is $(b,table), $(b,csv) or $(b,sexp); a bare \
     $(b,--metrics) prints the table."
  in
  Arg.(
    value
    & opt ~vopt:(Some "table") (some string) None
    & info [ "metrics" ] ~docv:"FORMAT" ~doc)

let metrics_begin = function
  | None -> ()
  | Some format ->
      (match format with
      | "table" | "csv" | "sexp" -> ()
      | other ->
          prerr_endline
            ("unknown metrics format: " ^ other ^ " (expected table|csv|sexp)");
          exit 1);
      Qnet_telemetry.Metrics.set_enabled true;
      Qnet_telemetry.Metrics.reset ()

let metrics_report = function
  | None -> ()
  | Some format ->
      print_newline ();
      (match format with
      | "csv" -> print_endline (Qnet_telemetry.Export.to_csv ())
      | "sexp" ->
          print_endline
            (Qnet_util.Sexp.to_string_hum (Qnet_telemetry.Export.to_sexp ()))
      | _ ->
          print_endline "telemetry:";
          print_endline
            (Qnet_util.Table.to_string (Qnet_telemetry.Export.to_table ())))

(* ------------------------------------------------------------------ *)
(* solve                                                               *)

let describe_tree g = function
  | None -> print_endline "  infeasible (rate 0)"
  | Some (tree : Ent_tree.t) ->
      Printf.printf "  rate %.6g (-ln rate %.4f), %d channels\n"
        (Ent_tree.rate_prob tree)
        (Ent_tree.rate_neg_log tree)
        (Ent_tree.channel_count tree);
      List.iter
        (fun (c : Channel.t) ->
          Printf.printf "    %d <-> %d : %d links, length %.0f, rate %.6g\n"
            c.src c.dst c.hops c.total_length (Channel.rate_prob c))
        tree.channels;
      ignore g

(* The optimality-gap report: every heuristic's achieved −ln rate next
   to the flow LP bound it provably cannot beat, and the relative gap
   (Muerp.optimality_gap).  Capacity-respecting outcomes compare
   against the capacity-aware bound; capacity-oblivious ones (Algorithm
   2 past the sufficient condition) against the structure-only bound —
   both directions of the comparison are valid by construction, so
   every printed gap is >= 0 unless there is a bound bug, which is
   exactly what the bench guard watches for. *)
let gap_table g params rows =
  let users = Graph.users g in
  let bound_of = function
    | Qnet_flow.Lp.Bound b -> b.Qnet_flow.Lp.neg_log
    | Qnet_flow.Lp.Disconnected | Qnet_flow.Lp.Infeasible -> infinity
  in
  let structure =
    bound_of (Qnet_flow.Lp.relax ~capacity_rows:false g params ~users)
  in
  let capacity = bound_of (Qnet_flow.Lp.relax g params ~users) in
  List.fold_left
    (fun t (name, achieved, capacity_ok) ->
      let bound = if capacity_ok then capacity else structure in
      Qnet_util.Table.add_row t
        [
          name;
          Printf.sprintf "%.6f" achieved;
          Printf.sprintf "%.6f" bound;
          Printf.sprintf "%.6f"
            (Muerp.optimality_gap ~bound_neg_log:bound
               ~achieved_neg_log:achieved);
        ])
    (Qnet_util.Table.create [ "method"; "-ln rate"; "lp bound"; "gap" ])
    rows

let solve_run verbose network load hier policy_name jobs metrics =
  apply_verbose verbose;
  metrics_begin metrics;
  (* Conflicting flags are a clean one-line error, never a
     silently-ignored flag or a backtrace. *)
  or_exit "solve"
    (match policy_name with
    | "all" | "flow" -> Ok ()
    | other -> Error ("--policy: unknown solve policy " ^ other ^ " (expected all|flow)"));
  (* The hier oracle replaces the whole method roster; a policy
     selection under it would be silently ignored. *)
  if hier && policy_name <> "all" then
    or_exit "solve" (Error "--hier cannot be combined with --policy");
  (* --load replaces the generated network entirely; accepting a
     topology selection (continent in particular, whose --regions
     wiring only exists at generation time) would silently ignore it. *)
  if load <> None && network.Scenario.topology <> "waxman" then
    or_exit "solve" (Error "--load cannot be combined with --topology");
  let network = or_exit "solve" (Scenario.validate_network network) in
  let g, params, partition =
    match load with
    | None ->
        let net = Scenario.build_net network in
        (net.graph, net.params, net.partition)
    | Some path -> (
        (* A missing, unreadable or malformed file is a file problem:
           exit 2 with the path in the message. *)
        match Qnet_graph.Codec.load_graph path with
        | Ok g ->
            ( g,
              Params.create ~alpha:network.alpha ~q:network.q (),
              lazy
                (Qnet_hier.Partition.kmeans
                   ~regions:(Scenario.regions network) ~seed:network.seed g) )
        | Error msg -> prerr_endline msg; exit 2)
  in
  let seed = network.seed in
  Format.printf "%a, seed %d@." Graph.pp g seed;
  if hier then begin
    (* Hierarchical mode exists for networks where every flat method
       is too slow, so it solves with the hier oracle only instead of
       sweeping the whole method roster. *)
    let part = Lazy.force partition in
    Format.printf "partition: %a@." Qnet_hier.Partition.pp part;
    let oracle = Qnet_hier.Oracle.create g params part in
    let capacity = Capacity.of_graph g in
    Printf.printf "hier-prim:\n";
    describe_tree g
      (Qnet_hier.Oracle.route_users oracle ~capacity ~users:(Graph.users g))
  end
  else if policy_name = "flow" then begin
    (* The flow optimizer alone: LP relaxation, the provable rate
       ceiling it yields, and the seeded rounding of its fractional
       optimum to an integral verified tree.  Nothing here depends on
       the pool, so output is trivially identical at every --jobs
       level. *)
    let users_l = Graph.users g in
    match Qnet_flow.Lp.relax g params ~users:users_l with
    | Qnet_flow.Lp.Disconnected ->
        print_endline
          "flow: user group disconnected over relay-capable switches \
           (provably infeasible)"
    | Qnet_flow.Lp.Infeasible ->
        print_endline "flow: LP infeasible (provably unservable)"
    | Qnet_flow.Lp.Bound bound ->
        Printf.printf
          "flow-lp-bound:\n\
          \  -ln rate %.4f (rate ceiling %.6g), %d pairs, %d pivots\n"
          bound.Qnet_flow.Lp.neg_log bound.Qnet_flow.Lp.rate
          (Array.length bound.Qnet_flow.Lp.pairs)
          bound.Qnet_flow.Lp.pivots;
        let capacity = Capacity.of_graph g in
        Printf.printf "flow-rounding:\n";
        let tree =
          Qnet_flow.Rounding.round ~seed g params ~capacity ~users:users_l
            ~bound
        in
        describe_tree g tree;
        let achieved =
          match tree with Some t -> Ent_tree.rate_neg_log t | None -> infinity
        in
        print_endline "optimality gap vs LP bound:";
        print_endline
          (Qnet_util.Table.to_string
             (gap_table g params [ ("flow", achieved, true) ]))
  end
  else begin
    let inst = Muerp.instance ~params g in
    let heuristics = Array.of_list Muerp.all_heuristics in
    (* Each method draws from its own seed-derived stream, so the
       roster parallelises without any cross-method RNG coupling — the
       output is identical at every --jobs level. *)
    let solve_one i =
      Muerp.solve ~rng:(Qnet_util.Prng.create seed) heuristics.(i) inst
    in
    let outcomes =
      with_jobs jobs (fun pool ->
          match pool with
          | Some pool ->
              Qnet_util.Pool.parallel_map pool (Array.length heuristics)
                solve_one
          | None -> Array.init (Array.length heuristics) solve_one)
    in
    Array.iteri
      (fun i (outcome : Muerp.outcome) ->
        Printf.printf "%s:\n" (Muerp.algorithm_name heuristics.(i));
        describe_tree g outcome.tree)
      outcomes;
    Printf.printf "e-q-cast:\n";
    let eqcast = Qnet_baselines.Eqcast.solve g params in
    describe_tree g eqcast;
    Printf.printf "n-fusion:\n";
    (match Qnet_baselines.Nfusion.solve g params with
    | None -> print_endline "  infeasible (rate 0)"
    | Some r ->
        Printf.printf "  rate %.6g via center %d (fusion -ln %.4f)\n"
          r.total_rate r.center r.fusion_neg_log);
    (* The gap report: n-fusion is absent because its fused-star rate
       model is not the Eq. (2) tree objective the LP relaxes. *)
    let rows =
      Array.to_list
        (Array.mapi
           (fun i (o : Muerp.outcome) ->
             ( Muerp.algorithm_name heuristics.(i),
               o.Muerp.neg_log_rate,
               Muerp.outcome_capacity_ok inst o ))
           outcomes)
      @ [
          ( "e-q-cast",
            (match eqcast with
            | Some t -> Ent_tree.rate_neg_log t
            | None -> infinity),
            true );
        ]
    in
    print_endline "optimality gap vs LP bound:";
    print_endline (Qnet_util.Table.to_string (gap_table g params rows))
  end;
  metrics_report metrics

let solve_cmd =
  let load_t =
    let doc = "Load the network from this file instead of generating one." in
    Arg.(value & opt (some string) None & info [ "load" ] ~docv:"FILE" ~doc)
  in
  let policy_t =
    let doc =
      "What to solve with: $(b,all) (the full method roster plus the \
       optimality-gap report) or $(b,flow) (the LP relaxation bound and \
       its randomized rounding alone)."
    in
    Arg.(value & opt string "all" & info [ "policy" ] ~docv:"NAME" ~doc)
  in
  let info = Cmd.info "solve" ~doc:"Solve one MUERP instance with every method." in
  Cmd.v info
    Term.(
      const solve_run $ verbose_t $ network_t ~regions:regions_t () $ load_t
      $ hier_t $ policy_t $ jobs_t $ metrics_t)

(* ------------------------------------------------------------------ *)
(* topology                                                            *)

let topology_run network save =
  let g = (network_or_exit "topology" network).graph in
  (match save with
  | None -> ()
  | Some path ->
      Qnet_graph.Codec.save_graph path g;
      Printf.printf "saved to %s\n" path);
  Format.printf "%a@." Graph.pp g;
  Printf.printf "users: %s\n"
    (String.concat ", " (List.map string_of_int (Graph.users g)));
  Printf.printf "connected: %b; users connected: %b\n"
    (Qnet_graph.Paths.is_connected g)
    (Qnet_graph.Paths.users_connected g);
  let lengths =
    Graph.fold_edges g ~init:[] ~f:(fun acc e -> e.Graph.length :: acc)
  in
  let s = Qnet_util.Stats.summarize (Array.of_list lengths) in
  Printf.printf "fiber lengths: mean %.0f, median %.0f, min %.0f, max %.0f\n"
    s.Qnet_util.Stats.mean s.Qnet_util.Stats.median s.Qnet_util.Stats.min
    s.Qnet_util.Stats.max;
  Format.printf "structure: %a@." Qnet_topology.Analysis.pp_summary
    (Qnet_topology.Analysis.summarize g)

let topology_cmd =
  let save_t =
    let doc = "Write the generated network to this file (s-expression)." in
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)
  in
  let info = Cmd.info "topology" ~doc:"Generate a network and describe it." in
  Cmd.v info
    Term.(const topology_run $ network_t ~physics:paper_physics () $ save_t)

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)

let experiment_run figure replications jobs csv metrics =
  check "experiment" "--replications" (replications >= 1) "must be >= 1";
  metrics_begin metrics;
  let cfg = Qnet_experiments.Config.create ~replications () in
  let module F = Qnet_experiments.Figures in
  let module R = Qnet_experiments.Report in
  let print s =
    print_endline (R.series_to_string s);
    match csv with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            output_string oc (R.series_to_csv s);
            output_char oc '\n');
        Printf.printf "csv written to %s\n" path
  in
  with_jobs jobs (fun pool ->
      match figure with
      | "all" ->
          let series = F.all ?pool ~cfg () in
          List.iter print series;
          print_endline
            (Qnet_util.Table.to_string
               (R.headlines_table (F.headlines series)))
      | "fig5" -> print (F.fig5 ?pool ~cfg ())
      | "fig6a" -> print (F.fig6a ?pool ~cfg ())
      | "fig6b" -> print (F.fig6b ?pool ~cfg ())
      | "fig7a" -> print (F.fig7a ?pool ~cfg ())
      | "fig7b" -> print (F.fig7b ?pool ~cfg ())
      | "fig8a" -> print (F.fig8a ?pool ~cfg ())
      | "fig8b" -> print (F.fig8b ?pool ~cfg ())
      | other ->
          prerr_endline ("unknown figure: " ^ other);
          exit 1);
  metrics_report metrics

let experiment_cmd =
  let figure_t =
    let doc = "Figure to reproduce: fig5..fig8b, or all." in
    Arg.(value & pos 0 string "all" & info [] ~docv:"FIGURE" ~doc)
  in
  let replications_t =
    let doc = "Random networks averaged per data point." in
    Arg.(value & opt int 20 & info [ "replications"; "r" ] ~docv:"N" ~doc)
  in
  let csv_t =
    let doc = "Also write the series as CSV to this file (single figures only)." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let info = Cmd.info "experiment" ~doc:"Reproduce a paper figure." in
  Cmd.v info
    Term.(
      const experiment_run $ figure_t $ replications_t $ jobs_t $ csv_t
      $ metrics_t)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)

let simulate_run network trials jobs metrics =
  metrics_begin metrics;
  let net = network_or_exit "simulate" network in
  check "simulate" "--trials" (trials >= 1) "must be >= 1";
  let g = net.graph and params = net.params in
  let inst = Muerp.instance ~params g in
  let outcome = Muerp.solve Conflict_free inst in
  (match outcome.tree with
  | None -> print_endline "instance infeasible; nothing to simulate"
  | Some tree ->
      let rng = Qnet_util.Prng.create (network.seed + 1_000_003) in
      let est =
        with_jobs jobs (fun pool ->
            Qnet_sim.Monte_carlo.estimate_rate ?pool rng g params tree ~trials)
      in
      Printf.printf
        "analytic rate  %.6g\nempirical rate %.6g (%d/%d successes)\n\
         wilson 95%% CI [%.6g, %.6g] — analytic %s\n"
        est.analytic est.p_hat est.successes est.trials est.ci_low est.ci_high
        (if est.within_ci then "inside CI" else "OUTSIDE CI"));
  metrics_report metrics

let simulate_cmd =
  let trials_t =
    let doc = "Monte-Carlo trials." in
    Arg.(value & opt int 200_000 & info [ "trials"; "n" ] ~docv:"N" ~doc)
  in
  let info =
    Cmd.info "simulate"
      ~doc:"Monte-Carlo-validate the analytic rate of a routed solution."
  in
  Cmd.v info
    Term.(const simulate_run $ network_t () $ trials_t $ jobs_t $ metrics_t)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)

let sweep_run seed parameter values replications jobs csv metrics =
  metrics_begin metrics;
  let module C = Qnet_experiments.Config in
  let module R = Qnet_experiments.Runner in
  (* Each value is a network setting, checked like the flag it
     stands for. *)
  let d = Scenario.default_network in
  let num of_string update v =
    match of_string (String.trim v) with
    | Some x -> update x
    | None ->
        or_exit "sweep" (Error (Printf.sprintf "%s: bad value %S" parameter v))
  in
  let set =
    match parameter with
    | "users" -> num int_of_string_opt (fun users -> { d with users })
    | "switches" -> num int_of_string_opt (fun switches -> { d with switches })
    | "degree" -> num float_of_string_opt (fun degree -> { d with degree })
    | "qubits" -> num int_of_string_opt (fun qubits -> { d with qubits })
    | "q" -> num float_of_string_opt (fun q -> { d with q })
    | other ->
        prerr_endline
          ("unknown parameter: " ^ other
         ^ " (expected users|switches|degree|qubits|q)");
        exit 1
  in
  check "sweep" "--replications" (replications >= 1) "must be >= 1";
  let configs =
    String.split_on_char ',' values
    |> List.filter (fun v -> String.trim v <> "")
    |> List.map (fun v ->
           let n = or_exit "sweep" (Scenario.validate_network (set v)) in
           ( String.trim v,
             C.create ~base_seed:seed ~replications
               ~spec:
                 (Spec.create ~n_users:n.users ~n_switches:n.switches
                    ~avg_degree:n.degree ~qubits_per_switch:n.qubits ())
               ~params:(Params.create ~alpha:n.alpha ~q:n.q ())
               () ))
  in
  let t =
    with_jobs jobs (fun pool ->
        List.fold_left
          (fun t (label, cfg) ->
            let rates = R.mean_rates (R.run_config ?pool cfg) in
            Qnet_util.Table.add_float_row t label (List.map snd rates))
          (Qnet_util.Table.create
             (parameter :: List.map (fun m -> R.method_name m) R.all_methods))
          configs)
  in
  print_endline (Qnet_util.Table.to_string t);
  (match csv with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Qnet_util.Table.to_csv t));
      Printf.printf "csv written to %s\n" path);
  metrics_report metrics

let sweep_cmd =
  let parameter_t =
    let doc = "Parameter to sweep: users, switches, degree, qubits or q." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PARAM" ~doc)
  in
  let values_t =
    let doc = "Comma-separated values." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"VALUES" ~doc)
  in
  let replications_t =
    let doc = "Random networks averaged per data point." in
    Arg.(value & opt int 20 & info [ "replications"; "r" ] ~docv:"N" ~doc)
  in
  let csv_t =
    let doc = "Also write the sweep table as CSV to this file." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)
  in
  let info = Cmd.info "sweep" ~doc:"One-dimensional parameter sweep." in
  Cmd.v info
    Term.(
      const sweep_run $ seed_t $ parameter_t $ values_t $ replications_t
      $ jobs_t $ csv_t $ metrics_t)

(* ------------------------------------------------------------------ *)
(* dot / svg                                                           *)

let highlight_paths g highlight =
  if not highlight then []
  else
    match (Muerp.solve Muerp.Conflict_free (Muerp.instance g)).tree with
    | None -> []
    | Some tree ->
        List.map (fun (c : Channel.t) -> c.path) tree.Ent_tree.channels

let highlight_t =
  let doc = "Overlay the conflict-free solution's channels." in
  Arg.(value & flag & info [ "highlight" ] ~doc)

let dot_run network highlight =
  let g = (network_or_exit "dot" network).graph in
  print_string
    (Qnet_graph.Dot.to_dot ~highlight_paths:(highlight_paths g highlight) g)

let dot_cmd =
  let info =
    Cmd.info "dot" ~doc:"Emit the network as a Graphviz DOT document."
  in
  Cmd.v info
    Term.(const dot_run $ network_t ~physics:paper_physics () $ highlight_t)

let svg_run (network : Scenario.network) highlight output =
  let g = (network_or_exit "svg" network).graph in
  let highlight_paths = highlight_paths g highlight in
  let title =
    Printf.sprintf "%d users / %d switches (%s, seed %d)" network.users
      network.switches network.topology network.seed
  in
  match output with
  | None -> print_string (Qnet_graph.Svg.render ~highlight_paths ~title g)
  | Some path ->
      Qnet_graph.Svg.save ~highlight_paths ~title path g;
      Printf.printf "wrote %s\n" path

let svg_cmd =
  let output_t =
    let doc = "Write the SVG to this file instead of stdout." in
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc)
  in
  let info =
    Cmd.info "svg" ~doc:"Render the network as a standalone SVG image."
  in
  Cmd.v info
    Term.(
      const svg_run $ network_t ~physics:paper_physics () $ highlight_t
      $ output_t)

(* ------------------------------------------------------------------ *)
(* fidelity                                                            *)

let fidelity_run network f0 threshold =
  let net = network_or_exit "fidelity" network in
  check "fidelity" "--f0" (f0 >= 0. && f0 <= 1.) "must lie in [0, 1]";
  check "fidelity" "--threshold" (threshold >= 0. && threshold <= 1.)
    "must lie in [0, 1]";
  let g = net.graph and params = net.params in
  let config = { Fidelity.f0; threshold } in
  (match Fidelity.max_hops ~f0 ~threshold ~max_considered:64 with
  | None ->
      Printf.printf
        "threshold %.3f unreachable even for 1-hop channels at f0 %.3f\n"
        threshold f0
  | Some h -> Printf.printf "fidelity budget: at most %d links/channel\n" h);
  let unconstrained = Muerp.solve Muerp.Conflict_free (Muerp.instance ~params g) in
  Printf.printf "unconstrained alg3 rate: %.6g\n" unconstrained.Muerp.rate;
  (match Fidelity.solve_kruskal g params config with
  | None -> print_endline "fidelity-aware kruskal: infeasible"
  | Some tree ->
      Printf.printf
        "fidelity-aware kruskal: rate %.6g, min channel fidelity %.4f\n"
        (Ent_tree.rate_prob tree)
        (Fidelity.tree_min_fidelity ~f0 tree));
  match Fidelity.solve_prim g params config with
  | None -> print_endline "fidelity-aware prim: infeasible"
  | Some tree ->
      Printf.printf
        "fidelity-aware prim: rate %.6g, min channel fidelity %.4f\n"
        (Ent_tree.rate_prob tree)
        (Fidelity.tree_min_fidelity ~f0 tree)

let fidelity_cmd =
  let f0_t =
    let doc = "Fidelity of a freshly generated link pair." in
    Arg.(value & opt float 0.98 & info [ "f0" ] ~docv:"F" ~doc)
  in
  let threshold_t =
    let doc = "Minimum acceptable end-to-end channel fidelity." in
    Arg.(value & opt float 0.9 & info [ "threshold" ] ~docv:"F" ~doc)
  in
  let info =
    Cmd.info "fidelity" ~doc:"Fidelity-aware routing (Werner-state model)."
  in
  Cmd.v info Term.(const fidelity_run $ network_t () $ f0_t $ threshold_t)

(* ------------------------------------------------------------------ *)
(* groups                                                              *)

let groups_run network n_groups group_size round_robin =
  check "groups" "--groups" (n_groups >= 1) "must be >= 1";
  check "groups" "--group-size" (group_size >= 1) "must be >= 1";
  let net = network_or_exit "groups" network in
  let g = net.graph and params = net.params in
  let all_users = Graph.users g in
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
        let head, tail = take group_size l in
        head :: chunk tail
  in
  let groups = List.filter (fun c -> c <> []) (chunk all_users) in
  let strategy =
    if round_robin then Multi_group.Round_robin else Multi_group.Sequential
  in
  let r = Multi_group.solve ~strategy g params ~groups in
  Printf.printf "%d groups of %d users, strategy %s\n" n_groups group_size
    (if round_robin then "round-robin" else "sequential");
  List.iteri
    (fun i (gr : Multi_group.group_result) ->
      Printf.printf "  group %d {%s}: %s\n" i
        (String.concat ", " (List.map string_of_int gr.Multi_group.group))
        (match gr.Multi_group.tree with
        | None -> "unserved"
        | Some _ -> Printf.sprintf "rate %.6g" gr.Multi_group.rate))
    r.Multi_group.groups;
  Printf.printf "all served: %b; min rate %.6g\n" r.Multi_group.all_feasible
    r.Multi_group.min_rate

let groups_cmd =
  let n_groups_t =
    let doc = "Number of independent entanglement groups." in
    Arg.(value & opt int 3 & info [ "groups"; "g" ] ~docv:"N" ~doc)
  in
  let group_size_t =
    let doc = "Users per group." in
    Arg.(value & opt int 3 & info [ "group-size"; "k" ] ~docv:"N" ~doc)
  in
  let round_robin_t =
    let doc = "Use round-robin allocation instead of sequential." in
    Arg.(value & flag & info [ "round-robin" ] ~doc)
  in
  let users_t =
    let+ n_groups = n_groups_t and+ group_size = group_size_t in
    n_groups * group_size
  in
  let info =
    Cmd.info "groups"
      ~doc:"Concurrently route several independent entanglement groups."
  in
  Cmd.v info
    Term.(
      const groups_run $ network_t ~users:users_t () $ n_groups_t
      $ group_size_t $ round_robin_t)

(* ------------------------------------------------------------------ *)
(* reference                                                           *)

let reference_run seed name users qubits q alpha =
  ignore
    (or_exit "reference"
       (Scenario.validate_network
          { Scenario.default_network with seed; users; qubits; q; alpha }));
  let g =
    match List.assoc_opt name Qnet_topology.Reference_nets.all with
    | None -> or_exit "reference" (Error ("unknown reference network: " ^ name))
    | Some topology -> (
        let rng = Qnet_util.Prng.create seed in
        try
          Qnet_topology.Reference_nets.build rng topology ~n_users:users
            ~qubits_per_switch:qubits ~user_qubits:1_000_000
        with Invalid_argument m -> or_exit "reference" (Error ("--users: " ^ m)))
  in
  let params = Params.create ~alpha ~q () in
  Format.printf "%s: %a@." name Graph.pp g;
  List.iter
    (fun alg ->
      let o = Muerp.solve alg (Muerp.instance ~params g) in
      Printf.printf "  %-22s rate %.6g\n" (Muerp.algorithm_name alg)
        o.Muerp.rate)
    Muerp.all_heuristics

let reference_cmd =
  let name_t =
    let doc = "Reference topology: nsfnet or arpanet." in
    Arg.(value & pos 0 string "nsfnet" & info [] ~docv:"NAME" ~doc)
  in
  let info =
    Cmd.info "reference" ~doc:"Route on a reference WAN topology."
  in
  Cmd.v info
    Term.(
      const reference_run $ seed_t $ name_t $ users_t $ qubits_t $ q_t
      $ alpha_t)

(* ------------------------------------------------------------------ *)
(* schedule                                                            *)

let schedule_run verbose network n mean_gap max_group queue_slots metrics =
  apply_verbose verbose;
  metrics_begin metrics;
  let net = network_or_exit "schedule" network in
  check "schedule" "--requests" (n >= 0) "must be >= 0";
  check "schedule" "--gap" (Float.is_finite mean_gap && mean_gap >= 0.)
    "must be a finite number >= 0";
  check "schedule" "--max-group"
    (max_group >= 2 && max_group <= network.users)
    (Printf.sprintf "must lie in [2, --users %d]" network.users);
  check "schedule" "--queue" (queue_slots >= 0) "must be >= 0";
  let g = net.graph and params = net.params in
  let rng = Qnet_util.Prng.create (network.seed + 77) in
  let requests =
    Qnet_sim.Scheduler.random_requests rng g ~n ~mean_gap ~max_group
      ~duration_range:(3, 8)
  in
  let policy =
    if queue_slots > 0 then Qnet_sim.Scheduler.Queue queue_slots
    else Qnet_sim.Scheduler.Drop
  in
  let stats, outcomes = Qnet_sim.Scheduler.run ~policy g params ~requests in
  Printf.printf
    "%d requests: %d accepted, %d rejected (ratio %.2f)\n\
     mean accepted rate %.4g, mean wait %.2f slots, peak qubits in use %d\n"
    stats.Qnet_sim.Scheduler.arrived stats.Qnet_sim.Scheduler.accepted
    stats.Qnet_sim.Scheduler.rejected stats.Qnet_sim.Scheduler.acceptance_ratio
    stats.Qnet_sim.Scheduler.mean_accepted_rate
    stats.Qnet_sim.Scheduler.mean_wait_slots
    stats.Qnet_sim.Scheduler.peak_qubits_in_use;
  List.iter
    (fun (o : Qnet_sim.Scheduler.outcome) ->
      let r = o.Qnet_sim.Scheduler.request in
      match o.Qnet_sim.Scheduler.disposition with
      | Qnet_sim.Scheduler.Accepted { slot; rate; _ } ->
          Printf.printf "  #%-3d arrive %3d  users {%s}  ACCEPT @%d  rate %.4g\n"
            r.Qnet_sim.Scheduler.id r.Qnet_sim.Scheduler.arrival
            (String.concat "," (List.map string_of_int r.Qnet_sim.Scheduler.users))
            slot rate
      | Qnet_sim.Scheduler.Rejected { slot } ->
          Printf.printf "  #%-3d arrive %3d  users {%s}  REJECT @%d\n"
            r.Qnet_sim.Scheduler.id r.Qnet_sim.Scheduler.arrival
            (String.concat "," (List.map string_of_int r.Qnet_sim.Scheduler.users))
            slot)
    outcomes;
  metrics_report metrics

let schedule_cmd =
  let n_t =
    let doc = "Number of synthetic requests." in
    Arg.(value & opt int 20 & info [ "requests"; "n" ] ~docv:"N" ~doc)
  in
  let gap_t =
    let doc = "Mean inter-arrival gap in slots." in
    Arg.(value & opt float 2. & info [ "gap" ] ~docv:"SLOTS" ~doc)
  in
  let group_t =
    let doc = "Largest request group size." in
    Arg.(value & opt int 4 & info [ "max-group" ] ~docv:"N" ~doc)
  in
  let queue_t =
    let doc = "Queue patience in slots (0 = drop immediately)." in
    Arg.(value & opt int 5 & info [ "queue" ] ~docv:"SLOTS" ~doc)
  in
  let info =
    Cmd.info "schedule"
      ~doc:"Run the online admission controller over a synthetic workload."
  in
  Cmd.v info
    Term.(
      const schedule_run $ verbose_t $ network_t () $ n_t $ gap_t $ group_t
      $ queue_t $ metrics_t)

(* ------------------------------------------------------------------ *)
(* traffic                                                             *)

module Workload = Qnet_online.Workload
module Engine = Qnet_online.Engine

let bad flag spec expected =
  Error (Printf.sprintf "bad %s %S (expected %s)" flag spec expected)

(* --arrival poisson:<rate> | batch:<size>:<period> | pareto:<a>:<lo>:<hi> *)
let parse_arrival_spec spec =
  let fail () =
    bad "--arrival" spec
      "poisson:<rate>, batch:<size>:<period> or pareto:<alpha>:<min>:<max>"
  in
  match String.split_on_char ':' spec with
  | [ "poisson"; r ] -> (
      match float_of_string_opt r with
      | Some r -> Ok (Workload.Poisson r)
      | None -> fail ())
  | [ "batch"; size; period ] -> (
      match (int_of_string_opt size, float_of_string_opt period) with
      | Some size, Some period -> Ok (Workload.Batched { period; size })
      | _ -> fail ())
  | [ "pareto"; a; lo; hi ] -> (
      match
        (float_of_string_opt a, float_of_string_opt lo, float_of_string_opt hi)
      with
      | Some alpha, Some lo, Some hi -> Ok (Workload.Pareto { alpha; lo; hi })
      | _ -> fail ())
  | _ -> fail ()

(* --modulate diurnal:<period>:<amplitude> | flash:<at>:<width>:<boost> *)
let parse_modulation_spec spec =
  let fail () =
    bad "--modulate" spec
      "diurnal:<period>:<amplitude> or flash:<at>:<width>:<boost>"
  in
  match String.split_on_char ':' spec with
  | [ "diurnal"; p; a ] -> (
      match (float_of_string_opt p, float_of_string_opt a) with
      | Some period, Some amplitude -> Ok (Workload.Diurnal { period; amplitude })
      | _ -> fail ())
  | [ "flash"; at; w; b ] -> (
      match
        (float_of_string_opt at, float_of_string_opt w, float_of_string_opt b)
      with
      | Some at, Some width, Some boost -> Ok (Workload.Flash { at; width; boost })
      | _ -> fail ())
  | _ -> fail ()

(* --group fixed:<k> | uniform:<lo>:<hi> | pareto:<a>:<lo>:<hi> *)
let parse_group_spec spec =
  let fail () =
    bad "--group" spec
      "fixed:<k>, uniform:<min>:<max> or pareto:<alpha>:<min>:<max>"
  in
  match String.split_on_char ':' spec with
  | [ "fixed"; k ] -> (
      match int_of_string_opt k with
      | Some k -> Ok (Workload.Fixed k)
      | None -> fail ())
  | [ "uniform"; lo; hi ] -> (
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi -> Ok (Workload.Uniform (lo, hi))
      | _ -> fail ())
  | [ "pareto"; a; lo; hi ] -> (
      match
        (float_of_string_opt a, int_of_string_opt lo, int_of_string_opt hi)
      with
      | Some alpha, Some lo, Some hi ->
          Ok (Workload.Pareto_group { alpha; lo; hi })
      | _ -> fail ())
  | _ -> fail ()

(* A muerp-reconfig/1 file; unreadable or malformed files are errors
   like any other bad setting, with the path in the message. *)
let read_reconfig path =
  let ( let* ) = Result.bind in
  let* data =
    Result.map_error
      (fun m -> "--reconfig: cannot read " ^ m)
      (Qnet_util.Io.read_file path)
  in
  Result.map_error
    (fun m -> Printf.sprintf "--reconfig %s: %s" path m)
    (Result.bind
       (Qnet_util.Sexp.of_string (String.trim data))
       Qnet_online.Reconfig.of_sexp)

let describe_outcome (o : Engine.outcome) =
  let r = o.Engine.request in
  let users = String.concat "," (List.map string_of_int r.Workload.users) in
  match o.Engine.resolution with
  | Engine.Served { start; rate; attempts; tier; _ } ->
      Printf.printf "  #%-3d t=%-7.2f {%s}  SERVED @%.2f  rate %.4g  attempts %d%s\n"
        r.Workload.id r.Workload.arrival users start rate attempts
        (if tier > 0 then Printf.sprintf "  tier %d" tier else "")
  | Engine.Rejected { at; queue_full } ->
      Printf.printf "  #%-3d t=%-7.2f {%s}  REJECTED @%.2f%s\n" r.Workload.id
        r.Workload.arrival users at
        (if queue_full then " (queue full)" else "")
  | Engine.Shed { at; reason } ->
      Printf.printf "  #%-3d t=%-7.2f {%s}  SHED @%.2f (%s)\n" r.Workload.id
        r.Workload.arrival users at
        (match reason with
        | Engine.Rate_limit -> "rate limit"
        | Engine.Queue_pressure -> "queue pressure")
  | Engine.Expired { at; attempts } ->
      Printf.printf "  #%-3d t=%-7.2f {%s}  EXPIRED @%.2f  attempts %d\n"
        r.Workload.id r.Workload.arrival users at attempts
  | Engine.Interrupted { start; at; recoveries; _ } ->
      Printf.printf
        "  #%-3d t=%-7.2f {%s}  INTERRUPTED @%.2f (served from %.2f, %d \
         recoveries)\n"
        r.Workload.id r.Workload.arrival users at start recoveries

let traffic_run verbose (scenario, reconfig_path) gap show_outcomes metrics =
  apply_verbose verbose;
  let s = or_exit "traffic" (Result.bind scenario Scenario.validate) in
  metrics_begin metrics;
  let b = or_exit "traffic" (Scenario.build s) in
  let g = b.net.graph and params = b.net.params and d = s.durability in
  let config = b.config and faults = b.fault_model and reconfig = s.reconfig in
  (* Load the cut before the header: a refused restore exits 2 with
     nothing on stdout.  Falls back to FILE.prev when the newest cut is
     bad, and picks up the journal tail for replay verification. *)
  let recovered =
    Option.map
      (fun path ->
        match
          Qnet_resilience.Checkpoint.recover ~path ~config:b.fingerprint
            ?journal:d.journal ()
        with
        | Ok r -> r
        | Error msg -> prerr_endline msg; exit 2)
      d.restore
  in
  Option.iter
    (fun oracle ->
      Format.printf "partition: %a@." Qnet_hier.Partition.pp
        (Qnet_hier.Oracle.partition oracle))
    b.oracle;
  Format.printf "%a, seed %d@." Graph.pp g s.network.seed;
  Format.printf "workload: %a@." Workload.pp_spec s.workload;
  Printf.printf "policy: %s, queue bound %s\n" config.policy.name
    (if s.overload.queue > 0 then string_of_int s.overload.queue
     else "none (reject)");
  Option.iter
    (fun model ->
      Format.printf "%a, recovery %s@." Qnet_faults.Model.pp model
        (Engine.recovery_to_string s.faults.recovery))
    faults;
  Option.iter
    (fun path ->
      Printf.printf "reconfig: %d change(s) from %s\n" (List.length reconfig)
        path)
    reconfig_path;
  (* With faults in play, eagerly invalidate the hier oracle's region
     caches on every element transition instead of waiting for lazy
     revalidation to notice. *)
  let on_health =
    Option.map
      (fun oracle health -> Qnet_hier.Serve.attach_health oracle health)
      b.oracle
  in
  if d.drill > 0. then begin
    (* Crash-recovery drill: cut every --drill time units through real
       files, crash into every cut, recover and verify the journal
       replay against the uninterrupted run. *)
    let drill =
      Qnet_resilience.Drill.crash_restore ~config ?faults ~reconfig
        ~every:d.drill g params ~requests:b.requests
    in
    Format.printf "%a@." Qnet_resilience.Drill.pp drill;
    metrics_report metrics;
    exit (if Qnet_resilience.Drill.passed drill then 0 else 1)
  end;
  let restore_from, replay_verifier =
    match recovered with
    | None -> (None, None)
    | Some r ->
        List.iter
          (fun w -> Printf.eprintf "warning: %s\n" w)
          r.Qnet_resilience.Checkpoint.r_warnings;
        Printf.printf "restored from %s (checkpoint at t=%g"
          r.Qnet_resilience.Checkpoint.r_path
          (Engine.snapshot_at r.Qnet_resilience.Checkpoint.r_snapshot);
        if d.journal <> None then
          Printf.printf ", %d journal record(s) to verify"
            (List.length r.Qnet_resilience.Checkpoint.r_journal);
        print_endline ")";
        ( Some r.Qnet_resilience.Checkpoint.r_snapshot,
          if d.journal <> None then
            Some
              (Qnet_resilience.Journal.verifier
                 r.Qnet_resilience.Checkpoint.r_journal)
          else None )
  in
  let writer =
    if d.checkpoint_every <= 0. then None
    else
      Some
        (Qnet_resilience.Checkpoint.writer ~path:d.checkpoint
           ~config:b.fingerprint ?journal:d.journal ())
  in
  let checkpoint =
    Option.map
      (fun w ->
        ( d.checkpoint_every,
          fun at snap ->
            (match Qnet_resilience.Checkpoint.cut w snap with
            | Ok _ -> ()
            | Error msg -> prerr_endline msg; exit 2);
            match d.halt_at with
            | Some halt_at when at >= halt_at ->
                (* Flush the journal before the simulated crash: its
                   header attests the cut just written. *)
                Qnet_resilience.Checkpoint.close w;
                Printf.printf
                  "halted at checkpoint t=%g (state saved to %s; resume with \
                   --restore %s)\n"
                  at d.checkpoint d.checkpoint;
                exit 0
            | _ -> () ))
      writer
  in
  let on_transition =
    match (writer, replay_verifier) with
    | None, None -> None
    | w, v ->
        Some
          (fun tr ->
            Option.iter (fun v -> Qnet_resilience.Journal.observe v tr) v;
            Option.iter
              (fun w -> Qnet_resilience.Checkpoint.on_transition w tr)
              w)
  in
  let report, outcomes =
    try
      Engine.run ~config ?faults ?on_health ?on_transition ?checkpoint
        ~reconfig ?restore_from g params ~requests:b.requests
    with Invalid_argument msg when restore_from <> None ->
      (* A restore the engine refuses means the file lied about
         matching this run. *)
      prerr_endline msg;
      exit 2
  in
  Option.iter Qnet_resilience.Checkpoint.close writer;
  (match replay_verifier with
  | None -> ()
  | Some v -> (
      match Qnet_resilience.Journal.finish v with
      | Ok 0 -> ()
      | Ok n ->
          Printf.printf
            "journal verified: %d committed transition(s) re-emitted \
             identically\n"
            n
      | Error msg ->
          Printf.eprintf "journal verification failed: %s\n" msg;
          exit 2));
  print_endline (Qnet_util.Table.to_string (Engine.report_table report));
  if gap then begin
    (* How much headroom the network itself leaves: each one-shot method
       on the *full-capacity* instance against the flow LP ceiling.  A
       static companion to the dynamic SLA report above — it answers
       "was the policy the bottleneck, or the network?". *)
    let inst = Muerp.instance ~params g in
    let rows =
      List.map
        (fun alg ->
          let o =
            Muerp.solve ~rng:(Qnet_util.Prng.create s.network.seed) alg inst
          in
          ( Muerp.algorithm_name alg,
            o.Muerp.neg_log_rate,
            Muerp.outcome_capacity_ok inst o ))
        Muerp.all_heuristics
      @ [
          ( "e-q-cast",
            (match Qnet_baselines.Eqcast.solve g params with
            | Some t -> Ent_tree.rate_neg_log t
            | None -> infinity),
            true );
        ]
    in
    print_endline "optimality gap vs LP bound (full-capacity instance):";
    print_endline (Qnet_util.Table.to_string (gap_table g params rows))
  end;
  if show_outcomes then List.iter describe_outcome outcomes;
  metrics_report metrics;
  match s.fail_on_sla with
  | Some bar when report.Engine.acceptance_ratio *. 100. < bar ->
      Printf.eprintf "SLA gate failed: acceptance %.2f%% < %.2f%%\n"
        (report.Engine.acceptance_ratio *. 100.)
        bar;
      exit 1
  | _ -> ()

(* The traffic flags, one term per {!Scenario.t} part.  Spec strings
   are parsed here; every value is checked by {!Scenario.validate}. *)

let workload_t =
  let d = Scenario.default.workload in
  let+ requests =
    Arg.(
      value & opt int d.requests
      & info [ "requests"; "n" ] ~docv:"N"
          ~doc:"Number of requests in the workload.")
  and+ arrival =
    Arg.(
      value & opt string "poisson:0.5"
      & info [ "arrival" ] ~docv:"SPEC"
          ~doc:
            "Arrival process: $(b,poisson:<rate>) (requests per time unit), \
             $(b,batch:<size>:<period>) (synchronised batches) or \
             $(b,pareto:<alpha>:<min>:<max>) (bounded-Pareto inter-arrival \
             gaps).")
  and+ modulate =
    Arg.(
      value & opt (some string) None
      & info [ "modulate" ] ~docv:"SPEC"
          ~doc:
            "Long-horizon modulation of the arrival rate, composed with \
             the --arrival process: $(b,diurnal:<period>:<amplitude>) \
             (sinusoidal day/night curve) or \
             $(b,flash:<at>:<width>:<boost>) (flash crowd).")
  and+ group =
    Arg.(
      value & opt string "uniform:2:4"
      & info [ "group" ] ~docv:"SPEC"
          ~doc:
            "Group-size distribution: $(b,fixed:<k>), \
             $(b,uniform:<min>:<max>) or $(b,pareto:<alpha>:<min>:<max>).")
  and+ duration_min =
    Arg.(
      value & opt float (fst d.duration)
      & info [ "duration-min" ] ~docv:"T" ~doc:"Shortest lease duration.")
  and+ duration_max =
    Arg.(
      value & opt float (snd d.duration)
      & info [ "duration-max" ] ~docv:"T" ~doc:"Longest lease duration.")
  and+ patience_min =
    Arg.(
      value & opt float (fst d.patience)
      & info [ "patience-min" ] ~docv:"T"
          ~doc:"Shortest deadline slack before a request abandons.")
  and+ patience_max =
    Arg.(
      value & opt float (snd d.patience)
      & info [ "patience-max" ] ~docv:"T"
          ~doc:"Longest deadline slack before a request abandons.")
  in
  let ( let* ) = Result.bind in
  let* arrivals = parse_arrival_spec arrival in
  let* modulation =
    Option.fold ~none:(Ok Workload.Flat) ~some:parse_modulation_spec modulate
  in
  let* group_size = parse_group_spec group in
  Ok
    {
      Workload.requests;
      arrivals;
      group_size;
      duration = (duration_min, duration_max);
      patience = (patience_min, patience_max);
      modulation;
    }

let policy_t =
  let d = Scenario.default.policy in
  let+ name =
    Arg.(
      value & opt string d.name
      & info [ "policy" ] ~docv:"NAME"
          ~doc:
            "Serving policy: prim, alg2, alg3, eqcast or flow (the LP \
             relaxation + randomized rounding optimizer, falling back to \
             prim when rounding fails).")
  and+ hier = hier_t
  and+ tiers =
    Arg.(
      value & opt (some string) None
      & info [ "tiers" ] ~docv:"NAMES"
          ~doc:
            "Graceful-degradation tiers: comma-separated policy names tried \
             in order under per-tier fuel budgets and circuit breakers \
             (e.g. $(b,alg3,alg2,prim)).  Replaces --policy.")
  and+ budget =
    Arg.(
      value & opt int d.budget
      & info [ "budget" ] ~docv:"FUEL"
          ~doc:
            "Solver fuel budget in Dijkstra node expansions per routing \
             attempt (0 = unmetered).  With --tiers this is the per-tier \
             fuel.")
  in
  { Scenario.name; hier; tiers; budget }

let overload_t =
  let d = Scenario.default.overload in
  let+ queue =
    Arg.(
      value & opt int d.queue
      & info [ "queue" ] ~docv:"N"
          ~doc:"Waiting-queue bound (0 = reject unroutable arrivals).")
  and+ retry_base =
    Arg.(
      value & opt float d.retry_base
      & info [ "retry-base" ] ~docv:"T"
          ~doc:"Initial retry backoff after a failed routing attempt.")
  and+ retry_max =
    Arg.(
      value & opt float d.retry_max
      & info [ "retry-max" ] ~docv:"T"
          ~doc:"Retry backoff cap (doubling saturates here).")
  and+ max_queue =
    Arg.(
      value & opt int d.max_queue
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission control: shed cheapest-to-refuse requests once the \
             waiting queue holds $(docv) entries (0 = unlimited).")
  and+ max_inflight =
    Arg.(
      value & opt int d.max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admission control: defer new serves while $(docv) leases are \
             active (0 = unlimited).")
  and+ rate =
    Arg.(
      value & opt float d.rate
      & info [ "rate" ] ~docv:"RATE"
          ~doc:
            "Token-bucket admission rate (requests per time unit; 0 = \
             unlimited).")
  and+ burst =
    Arg.(
      value & opt float d.burst
      & info [ "burst" ] ~docv:"N"
          ~doc:"Token-bucket burst size (0 = max 1 --rate).")
  and+ flow_gate =
    Arg.(
      value & flag
      & info [ "flow-gate" ]
          ~doc:
            "Admission control: reject provably-unservable groups (users \
             not connected over relay-capable switches) before any solver \
             search, via the flow subsystem's feasibility oracle.  Sound — \
             it never rejects a group any policy could serve.")
  in
  {
    Scenario.queue;
    retry_base;
    retry_max;
    max_queue;
    max_inflight;
    rate;
    burst;
    flow_gate;
  }

let faults_t =
  let d = Scenario.default.faults in
  let+ mtbf =
    Arg.(
      value & opt float d.mtbf
      & info [ "fault-mtbf" ] ~docv:"T"
          ~doc:
            "Mean time between failures per infrastructure element (0 \
             disables the independent failure process).")
  and+ mttr =
    Arg.(
      value & opt float d.mttr
      & info [ "fault-mttr" ] ~docv:"T"
          ~doc:"Mean time to repair a failed element.")
  and+ targets =
    Arg.(
      value
      & opt string (Qnet_faults.Model.target_to_string d.targets)
      & info [ "fault-targets" ] ~docv:"KIND"
          ~doc:
            "Element class the failure process hits: $(b,links), \
             $(b,switches) or $(b,both).")
  and+ regional =
    Arg.(
      value & opt float d.regional
      & info [ "fault-regional" ] ~docv:"RATE"
          ~doc:
            "Correlated regional-outage rate (outages per time unit; 0 \
             disables).")
  and+ radius =
    Arg.(
      value & opt float d.radius
      & info [ "fault-radius" ] ~docv:"R"
          ~doc:"Radius of a regional outage (km, in layout units).")
  and+ recovery =
    Arg.(
      value
      & opt string (Engine.recovery_to_string d.recovery)
      & info [ "recovery" ] ~docv:"MODE"
          ~doc:
            "Mid-lease fault response: $(b,abort), $(b,repair) (replace \
             dead channels) or $(b,reroute) (route the group afresh).")
  in
  let ( let* ) = Result.bind in
  let* targets =
    Result.map_error
      (fun m -> "--fault-targets: " ^ m)
      (Qnet_faults.Model.target_of_string targets)
  in
  let* recovery =
    Result.map_error
      (fun m -> "--recovery: " ^ m)
      (Engine.recovery_of_string recovery)
  in
  Ok { Scenario.mtbf; mttr; targets; regional; radius; recovery }

let durability_t =
  let d = Scenario.default.durability in
  let+ checkpoint_every =
    Arg.(
      value & opt float d.checkpoint_every
      & info [ "checkpoint-every" ] ~docv:"DT"
          ~doc:
            "Cut a durable engine checkpoint every $(docv) time units (0 \
             disables).  Each cut atomically replaces --checkpoint, keeping \
             the previous one as FILE.prev.")
  and+ checkpoint =
    Arg.(
      value & opt string d.checkpoint
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:"Checkpoint file path (with --checkpoint-every).")
  and+ journal =
    Arg.(
      value & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead event journal path (with --checkpoint-every or \
             --restore).  Every committed engine transition since the last \
             cut is appended (fsync-batched); on --restore the recovered \
             run is verified to re-emit the journal exactly.")
  and+ restore =
    Arg.(
      value & opt (some string) None
      & info [ "restore" ] ~docv:"FILE"
          ~doc:
            "Resume an interrupted run from a checkpoint file written under \
             the same flags, falling back to FILE.prev (with a warning) \
             when the newest cut is damaged.  The continuation reproduces \
             the uninterrupted run's report byte-for-byte.")
  and+ halt_at =
    Arg.(
      value & opt (some float) None
      & info [ "halt-at" ] ~docv:"T"
          ~doc:
            "Crash-recovery drills: exit 0 after writing the first \
             checkpoint at or past time $(docv), simulating an interrupted \
             run (requires --checkpoint-every).")
  and+ drill =
    Arg.(
      value & opt float d.drill
      & info [ "drill" ] ~docv:"DT"
          ~doc:
            "Run a crash-recovery drill instead of a plain run: cut a \
             checkpoint (and journal) to real files every $(docv) time \
             units, crash into every cut, recover, verify the journal \
             replay and diff each restored continuation against the \
             uninterrupted run (0 disables; exits nonzero on any \
             divergence).")
  in
  { Scenario.checkpoint_every; checkpoint; journal; restore; halt_at; drill }

(* The whole traffic scenario (not yet validated), plus the --reconfig
   path for the report header. *)
let scenario_t =
  let+ network = network_t ~regions:regions_t ()
  and+ workload = workload_t
  and+ policy = policy_t
  and+ overload = overload_t
  and+ faults = faults_t
  and+ reconfig_path =
    Arg.(
      value & opt (some string) None
      & info [ "reconfig" ] ~docv:"FILE"
          ~doc:
            "Apply live topology reconfiguration events from a \
             muerp-reconfig/1 s-expression file: switch join/leave, link \
             add/remove, and qubit re-provisioning, mid-run and without \
             draining traffic.")
  and+ durability = durability_t
  and+ fail_on_sla =
    Arg.(
      value & opt (some float) None
      & info [ "fail-on-sla" ] ~docv:"PCT"
          ~doc:
            "Exit nonzero when the acceptance ratio falls below $(docv) \
             percent.")
  in
  let scenario =
    let ( let* ) = Result.bind in
    let* workload = workload in
    let* faults = faults in
    let* reconfig = Option.fold ~none:(Ok []) ~some:read_reconfig reconfig_path in
    Ok
      {
        Scenario.network;
        workload;
        policy;
        overload;
        faults;
        reconfig;
        durability;
        fail_on_sla;
      }
  in
  (scenario, reconfig_path)

let traffic_cmd =
  let gap_t =
    let doc =
      "After the SLA report, print each one-shot method's optimality \
       gap against the flow LP bound on the full-capacity instance."
    in
    Arg.(value & flag & info [ "gap" ] ~doc)
  in
  let outcomes_t =
    let doc = "Also print one line per request outcome." in
    Arg.(value & flag & info [ "outcomes" ] ~doc)
  in
  let info =
    Cmd.info "traffic"
      ~doc:
        "Serve a dynamic multi-user request workload with the online \
         traffic engine."
  in
  Cmd.v info
    Term.(
      const traffic_run $ verbose_t $ scenario_t $ gap_t $ outcomes_t
      $ metrics_t)

(* ------------------------------------------------------------------ *)

let inspect_run path =
  let fail msg =
    prerr_endline msg;
    exit 2
  in
  let header =
    match Qnet_util.Io.read_file path with
    | Ok data -> (
        match String.index_opt data '\n' with
        | Some i -> String.sub data 0 i
        | None -> data)
    | Error m -> fail ("cannot read " ^ m)
  in
  if String.starts_with ~prefix:"muerp-checkpoint" header then
    match Qnet_resilience.Checkpoint.read ~path with
    | Error m -> fail m
    | Ok (config, snap) ->
        Printf.printf "%s\nconfig: %s\n%s\n" header config
          (Qnet_util.Sexp.to_string_hum
             (Qnet_online.Engine.snapshot_to_sexp snap))
  else if String.starts_with ~prefix:"muerp-journal" header then
    match Qnet_resilience.Journal.read ~path with
    | Error m -> fail m
    | Ok c ->
        Printf.printf "%s\nconfig: %s\nextends cut %s (ordinal %d)\n" header
          c.Qnet_resilience.Journal.j_config c.Qnet_resilience.Journal.j_head
          c.Qnet_resilience.Journal.j_index;
        List.iter
          (fun tr -> print_endline (Qnet_resilience.Journal.describe tr))
          c.Qnet_resilience.Journal.j_records;
        Option.iter
          (fun w -> Printf.eprintf "warning: %s\n" w)
          c.Qnet_resilience.Journal.j_torn
  else fail (Printf.sprintf "%s is neither a muerp checkpoint nor a journal" path)

let inspect_cmd =
  let file_t =
    let doc = "A checkpoint cut or a write-ahead journal." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let info =
    Cmd.info "inspect"
      ~doc:
        "Print a checkpoint cut (header, config, snapshot as an \
         s-expression) or a journal (header, one line per record); exit \
         2 on anything else."
  in
  Cmd.v info Term.(const inspect_run $ file_t)

(* ------------------------------------------------------------------ *)

let main =
  let info =
    Cmd.info "muerp" ~version:"1.0.0"
      ~doc:"Multi-user entanglement routing over quantum Internets."
  in
  Cmd.group info
    [
      solve_cmd; topology_cmd; experiment_cmd; simulate_cmd; sweep_cmd;
      dot_cmd; svg_cmd; fidelity_cmd; groups_cmd; reference_cmd; schedule_cmd;
      traffic_cmd; inspect_cmd;
    ]

let () =
  (* Dune's selective linking drops module initialisers that nothing
     references, so the flow policy registers itself here, explicitly,
     before any Policy.of_name lookup can run. *)
  Qnet_flow.Serve.register ();
  exit (Cmd.eval main)
