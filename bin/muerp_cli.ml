(* muerp — command-line front end for the MUERP library.

   Subcommands:
     solve       route one instance with every method and print the trees
     topology    generate a network and print its composition
     experiment  reproduce a paper figure (fig5 .. fig8b, or "all")
     simulate    Monte-Carlo-validate the analytic rate of a solution
     sweep       one-dimensional parameter sweep with a chosen method
     traffic     serve a dynamic request workload with the online engine *)

open Cmdliner
module Graph = Qnet_graph.Graph
module Spec = Qnet_topology.Spec
module Generate = Qnet_topology.Generate
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
  Arg.(value & opt int 10 & info [ "users"; "u" ] ~docv:"N" ~doc)

let switches_t =
  let doc = "Number of quantum switches." in
  Arg.(value & opt int 50 & info [ "switches"; "s" ] ~docv:"N" ~doc)

let degree_t =
  let doc = "Target average vertex degree." in
  Arg.(value & opt float 6. & info [ "degree"; "d" ] ~docv:"D" ~doc)

let qubits_t =
  let doc = "Memory qubits per switch." in
  Arg.(value & opt int 4 & info [ "qubits"; "Q" ] ~docv:"Q" ~doc)

let q_t =
  let doc = "BSM swap success probability." in
  Arg.(value & opt float 0.9 & info [ "swap-rate"; "q" ] ~docv:"Q" ~doc)

let alpha_t =
  let doc = "Fiber attenuation constant (per km-unit)." in
  Arg.(value & opt float 1e-4 & info [ "alpha" ] ~docv:"A" ~doc)

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

(* 0 = autotune: region count grows with the square root of the network
   so per-region and skeleton work stay balanced (DESIGN.md,
   "Hierarchical routing").  An explicit --regions always wins. *)
let resolve_regions ~switches regions =
  if regions = 0 then Qnet_hier.Partition.auto_regions switches
  else if regions < 0 then (
    prerr_endline "regions must be >= 0";
    exit 1)
  else regions

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

let build_spec ~users ~switches ~degree ~qubits =
  Spec.create ~n_users:users ~n_switches:switches ~avg_degree:degree
    ~qubits_per_switch:qubits ()

let build_network ~seed ~topology ~spec =
  match Generate.of_name topology with
  | None -> Error (`Msg (Printf.sprintf "unknown topology %S" topology))
  | Some kind ->
      let rng = Qnet_util.Prng.create seed in
      Ok (Generate.run kind rng spec)

(* Like [build_network], but the continent generator also returns its
   exact tile labels so --hier can partition for free instead of
   re-deriving regions by k-means. *)
let build_network_labeled ~seed ~topology ~regions ~spec =
  if topology = "continent" then
    let params =
      { Qnet_topology.Continent.default_params with regions }
    in
    let rng = Qnet_util.Prng.create seed in
    match Qnet_topology.Continent.generate_labeled ~params rng spec with
    | g, labels -> Ok (g, Some labels)
    | exception Invalid_argument msg -> Error (`Msg msg)
  else
    Result.map (fun g -> (g, None)) (build_network ~seed ~topology ~spec)

let hier_partition ~seed ~regions g labels =
  match labels with
  | Some labels -> Qnet_hier.Partition.of_assignment g labels
  | None -> Qnet_hier.Partition.kmeans ~regions ~seed g

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

let solve_run verbose seed users switches degree qubits q alpha topology load
    hier regions policy_name jobs metrics =
  apply_verbose verbose;
  metrics_begin metrics;
  (* Flag validation mirrors traffic's hardened paths: conflicting
     flags are a clean one-line error, never a silently-ignored flag or
     a backtrace. *)
  (match policy_name with
  | "all" | "flow" -> ()
  | other ->
      prerr_endline ("unknown solve policy: " ^ other ^ " (expected all|flow)");
      exit 1);
  if hier && policy_name <> "all" then begin
    (* The hier oracle replaces the whole method roster; a policy
       selection under it would be silently ignored. *)
    prerr_endline "--hier cannot be combined with --policy";
    exit 1
  end;
  if load <> None && topology <> "waxman" then begin
    (* --load replaces the generated network entirely; accepting a
       topology selection (continent in particular, whose --regions
       wiring only exists at generation time) would silently ignore
       it. *)
    prerr_endline "--load cannot be combined with --topology";
    exit 1
  end;
  let regions = resolve_regions ~switches regions in
  let spec = build_spec ~users ~switches ~degree ~qubits in
  let network =
    match load with
    | Some path -> (
        (* A missing, unreadable or malformed file is a file problem:
           exit 2 with the path in the message. *)
        match Qnet_graph.Codec.load_graph path with
        | Ok g -> Ok (g, None)
        | Error msg -> prerr_endline msg; exit 2)
    | None -> build_network_labeled ~seed ~topology ~regions ~spec
  in
  match network with
  | Error (`Msg m) -> prerr_endline m; exit 1
  | Ok (g, labels) ->
      let params = Params.create ~alpha ~q () in
      Format.printf "%a, seed %d@." Graph.pp g seed;
      if hier then begin
        (* Hierarchical mode exists for networks where every flat
           method is too slow, so it solves with the hier oracle only
           instead of sweeping the whole method roster. *)
        let part = hier_partition ~seed ~regions g labels in
        Format.printf "partition: %a@." Qnet_hier.Partition.pp part;
        let oracle = Qnet_hier.Oracle.create g params part in
        let capacity = Capacity.of_graph g in
        Printf.printf "hier-prim:\n";
        describe_tree g
          (Qnet_hier.Oracle.route_users oracle ~capacity
             ~users:(Graph.users g))
      end
      else if policy_name = "flow" then begin
        (* The flow optimizer alone: LP relaxation, the provable rate
           ceiling it yields, and the seeded rounding of its fractional
           optimum to an integral verified tree.  Nothing here depends
           on the pool, so output is trivially identical at every
           --jobs level. *)
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
              Qnet_flow.Rounding.round ~seed g params ~capacity
                ~users:users_l ~bound
            in
            describe_tree g tree;
            let achieved =
              match tree with
              | Some t -> Ent_tree.rate_neg_log t
              | None -> infinity
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
           roster parallelises without any cross-method RNG coupling —
           the output is identical at every --jobs level. *)
        let solve_one i =
          Muerp.solve ~rng:(Qnet_util.Prng.create seed) heuristics.(i) inst
        in
        let outcomes =
          with_jobs jobs (fun pool ->
              match pool with
              | Some pool ->
                  Qnet_util.Pool.parallel_map pool
                    (Array.length heuristics)
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
        (* The gap report: n-fusion is absent because its fused-star
           rate model is not the Eq. (2) tree objective the LP
           relaxes. *)
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
      const solve_run $ verbose_t $ seed_t $ users_t $ switches_t $ degree_t
      $ qubits_t $ q_t $ alpha_t $ topology_t $ load_t $ hier_t $ regions_t
      $ policy_t $ jobs_t $ metrics_t)

(* ------------------------------------------------------------------ *)
(* topology                                                            *)

let topology_run seed users switches degree qubits topology save =
  let spec = build_spec ~users ~switches ~degree ~qubits in
  match build_network ~seed ~topology ~spec with
  | Error (`Msg m) -> prerr_endline m; exit 1
  | Ok g ->
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
      Printf.printf
        "fiber lengths: mean %.0f, median %.0f, min %.0f, max %.0f\n"
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
    Term.(
      const topology_run $ seed_t $ users_t $ switches_t $ degree_t $ qubits_t
      $ topology_t $ save_t)

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)

let experiment_run figure replications jobs csv metrics =
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

let simulate_run seed users switches degree qubits q alpha topology trials
    jobs metrics =
  metrics_begin metrics;
  let spec = build_spec ~users ~switches ~degree ~qubits in
  match build_network ~seed ~topology ~spec with
  | Error (`Msg m) -> prerr_endline m; exit 1
  | Ok g ->
      let params = Params.create ~alpha ~q () in
      let inst = Muerp.instance ~params g in
      let outcome = Muerp.solve Conflict_free inst in
      (match outcome.tree with
      | None -> print_endline "instance infeasible; nothing to simulate"
      | Some tree ->
          let rng = Qnet_util.Prng.create (seed + 1_000_003) in
          let est =
            with_jobs jobs (fun pool ->
                Qnet_sim.Monte_carlo.estimate_rate ?pool rng g params tree
                  ~trials)
          in
          Printf.printf
            "analytic rate  %.6g\nempirical rate %.6g (%d/%d successes)\n\
             wilson 95%% CI [%.6g, %.6g] — analytic %s\n"
            est.analytic est.p_hat est.successes est.trials est.ci_low
            est.ci_high
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
    Term.(
      const simulate_run $ seed_t $ users_t $ switches_t $ degree_t $ qubits_t
      $ q_t $ alpha_t $ topology_t $ trials_t $ jobs_t $ metrics_t)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)

let sweep_run seed parameter values replications jobs csv metrics =
  metrics_begin metrics;
  let module C = Qnet_experiments.Config in
  let module R = Qnet_experiments.Runner in
  let create = C.create ~base_seed:seed in
  let parse_values () =
    String.split_on_char ',' values
    |> List.filter (fun s -> String.trim s <> "")
    |> List.map String.trim
  in
  let configs =
    match parameter with
    | "users" ->
        List.map
          (fun v ->
            let n = int_of_string v in
            ( v,
              create
                ~spec:(Spec.create ~n_users:n ())
                ~replications () ))
          (parse_values ())
    | "switches" ->
        List.map
          (fun v ->
            let n = int_of_string v in
            (v, create ~spec:(Spec.create ~n_switches:n ()) ~replications ()))
          (parse_values ())
    | "degree" ->
        List.map
          (fun v ->
            let d = float_of_string v in
            (v, create ~spec:(Spec.create ~avg_degree:d ()) ~replications ()))
          (parse_values ())
    | "qubits" ->
        List.map
          (fun v ->
            let n = int_of_string v in
            ( v,
              create
                ~spec:(Spec.create ~qubits_per_switch:n ())
                ~replications () ))
          (parse_values ())
    | "q" ->
        List.map
          (fun v ->
            let q = float_of_string v in
            (v, create ~params:(Params.create ~q ()) ~replications ()))
          (parse_values ())
    | other ->
        prerr_endline
          ("unknown parameter: " ^ other
         ^ " (expected users|switches|degree|qubits|q)");
        exit 1
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
(* dot                                                                 *)

let dot_run seed users switches degree qubits topology highlight =
  let spec = build_spec ~users ~switches ~degree ~qubits in
  match build_network ~seed ~topology ~spec with
  | Error (`Msg m) -> prerr_endline m; exit 1
  | Ok g ->
      let highlight_paths =
        if not highlight then []
        else
          match (Muerp.solve Muerp.Conflict_free (Muerp.instance g)).tree with
          | None -> []
          | Some tree ->
              List.map (fun (c : Channel.t) -> c.path) tree.Ent_tree.channels
      in
      print_string (Qnet_graph.Dot.to_dot ~highlight_paths g)

let dot_cmd =
  let highlight_t =
    let doc = "Overlay the conflict-free solution's channels." in
    Arg.(value & flag & info [ "highlight" ] ~doc)
  in
  let info =
    Cmd.info "dot" ~doc:"Emit the network as a Graphviz DOT document."
  in
  Cmd.v info
    Term.(
      const dot_run $ seed_t $ users_t $ switches_t $ degree_t $ qubits_t
      $ topology_t $ highlight_t)

(* ------------------------------------------------------------------ *)
(* svg                                                                 *)

let svg_run seed users switches degree qubits topology highlight output =
  let spec = build_spec ~users ~switches ~degree ~qubits in
  match build_network ~seed ~topology ~spec with
  | Error (`Msg m) -> prerr_endline m; exit 1
  | Ok g ->
      let highlight_paths =
        if not highlight then []
        else
          match (Muerp.solve Muerp.Conflict_free (Muerp.instance g)).tree with
          | None -> []
          | Some tree ->
              List.map (fun (c : Channel.t) -> c.path) tree.Ent_tree.channels
      in
      let title =
        Printf.sprintf "%d users / %d switches (%s, seed %d)" users switches
          topology seed
      in
      (match output with
      | None ->
          print_string (Qnet_graph.Svg.render ~highlight_paths ~title g)
      | Some path ->
          Qnet_graph.Svg.save ~highlight_paths ~title path g;
          Printf.printf "wrote %s\n" path)

let svg_cmd =
  let highlight_t =
    let doc = "Overlay the conflict-free solution's channels." in
    Arg.(value & flag & info [ "highlight" ] ~doc)
  in
  let output_t =
    let doc = "Write the SVG to this file instead of stdout." in
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc)
  in
  let info =
    Cmd.info "svg" ~doc:"Render the network as a standalone SVG image."
  in
  Cmd.v info
    Term.(
      const svg_run $ seed_t $ users_t $ switches_t $ degree_t $ qubits_t
      $ topology_t $ highlight_t $ output_t)

(* ------------------------------------------------------------------ *)
(* fidelity                                                            *)

let fidelity_run seed users switches degree qubits q alpha topology f0
    threshold =
  let spec = build_spec ~users ~switches ~degree ~qubits in
  match build_network ~seed ~topology ~spec with
  | Error (`Msg m) -> prerr_endline m; exit 1
  | Ok g ->
      let params = Params.create ~alpha ~q () in
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
  Cmd.v info
    Term.(
      const fidelity_run $ seed_t $ users_t $ switches_t $ degree_t $ qubits_t
      $ q_t $ alpha_t $ topology_t $ f0_t $ threshold_t)

(* ------------------------------------------------------------------ *)
(* groups                                                              *)

let groups_run seed switches degree qubits q alpha topology n_groups
    group_size round_robin =
  let users = n_groups * group_size in
  let spec = build_spec ~users ~switches ~degree ~qubits in
  match build_network ~seed ~topology ~spec with
  | Error (`Msg m) -> prerr_endline m; exit 1
  | Ok g ->
      let params = Params.create ~alpha ~q () in
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
      Printf.printf "all served: %b; min rate %.6g\n"
        r.Multi_group.all_feasible r.Multi_group.min_rate

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
  let info =
    Cmd.info "groups"
      ~doc:"Concurrently route several independent entanglement groups."
  in
  Cmd.v info
    Term.(
      const groups_run $ seed_t $ switches_t $ degree_t $ qubits_t $ q_t
      $ alpha_t $ topology_t $ n_groups_t $ group_size_t $ round_robin_t)

(* ------------------------------------------------------------------ *)
(* reference                                                           *)

let reference_run seed name users qubits q alpha =
  match List.assoc_opt name Qnet_topology.Reference_nets.all with
  | None ->
      prerr_endline ("unknown reference network: " ^ name);
      exit 1
  | Some net ->
      let rng = Qnet_util.Prng.create seed in
      let g =
        Qnet_topology.Reference_nets.build rng net ~n_users:users
          ~qubits_per_switch:qubits ~user_qubits:1_000_000
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

let schedule_run verbose seed users switches degree qubits q alpha topology n
    mean_gap max_group queue_slots metrics =
  apply_verbose verbose;
  metrics_begin metrics;
  let spec = build_spec ~users ~switches ~degree ~qubits in
  match build_network ~seed ~topology ~spec with
  | Error (`Msg m) -> prerr_endline m; exit 1
  | Ok g ->
      let params = Params.create ~alpha ~q () in
      let rng = Qnet_util.Prng.create (seed + 77) in
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
        stats.Qnet_sim.Scheduler.rejected
        stats.Qnet_sim.Scheduler.acceptance_ratio
        stats.Qnet_sim.Scheduler.mean_accepted_rate
        stats.Qnet_sim.Scheduler.mean_wait_slots
        stats.Qnet_sim.Scheduler.peak_qubits_in_use;
      List.iter
        (fun (o : Qnet_sim.Scheduler.outcome) ->
          let r = o.Qnet_sim.Scheduler.request in
          match o.Qnet_sim.Scheduler.disposition with
          | Qnet_sim.Scheduler.Accepted { slot; rate; _ } ->
              Printf.printf
                "  #%-3d arrive %3d  users {%s}  ACCEPT @%d  rate %.4g\n"
                r.Qnet_sim.Scheduler.id r.Qnet_sim.Scheduler.arrival
                (String.concat ","
                   (List.map string_of_int r.Qnet_sim.Scheduler.users))
                slot rate
          | Qnet_sim.Scheduler.Rejected { slot } ->
              Printf.printf "  #%-3d arrive %3d  users {%s}  REJECT @%d\n"
                r.Qnet_sim.Scheduler.id r.Qnet_sim.Scheduler.arrival
                (String.concat ","
                   (List.map string_of_int r.Qnet_sim.Scheduler.users))
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
      const schedule_run $ verbose_t $ seed_t $ users_t $ switches_t
      $ degree_t $ qubits_t $ q_t $ alpha_t $ topology_t $ n_t $ gap_t
      $ group_t $ queue_t $ metrics_t)

(* ------------------------------------------------------------------ *)
(* traffic                                                             *)

(* --arrival poisson:<rate> | batch:<size>:<period> | pareto:<a>:<lo>:<hi> *)
let parse_arrival_spec spec =
  let fail () =
    Error
      (Printf.sprintf
         "bad --arrival %S (expected poisson:<rate>, batch:<size>:<period> \
          or pareto:<alpha>:<min>:<max>)"
         spec)
  in
  match String.split_on_char ':' spec with
  | [ "poisson"; r ] -> (
      match float_of_string_opt r with
      | Some r -> Ok (Qnet_online.Workload.Poisson r)
      | None -> fail ())
  | [ "batch"; size; period ] -> (
      match (int_of_string_opt size, float_of_string_opt period) with
      | Some size, Some period ->
          Ok (Qnet_online.Workload.Batched { period; size })
      | _ -> fail ())
  | [ "pareto"; a; lo; hi ] -> (
      match
        (float_of_string_opt a, float_of_string_opt lo, float_of_string_opt hi)
      with
      | Some alpha, Some lo, Some hi ->
          Ok (Qnet_online.Workload.Pareto { alpha; lo; hi })
      | _ -> fail ())
  | _ -> fail ()

(* diurnal:<period>:<amplitude> | flash:<at>:<width>:<boost> — accepted
   by --arrival (over the default base process) and by --modulate
   (composed with any explicit --arrival base spec). *)
let parse_modulation_spec spec =
  let fail () =
    Error
      (Printf.sprintf
         "bad modulation %S (expected diurnal:<period>:<amplitude> or \
          flash:<at>:<width>:<boost>)"
         spec)
  in
  match String.split_on_char ':' spec with
  | [ "diurnal"; p; a ] -> (
      match (float_of_string_opt p, float_of_string_opt a) with
      | Some period, Some amplitude ->
          Ok (Qnet_online.Workload.Diurnal { period; amplitude })
      | _ -> fail ())
  | [ "flash"; at; w; b ] -> (
      match
        (float_of_string_opt at, float_of_string_opt w, float_of_string_opt b)
      with
      | Some at, Some width, Some boost ->
          Ok (Qnet_online.Workload.Flash { at; width; boost })
      | _ -> fail ())
  | _ -> fail ()

let is_modulation_spec spec =
  match String.index_opt spec ':' with
  | Some i ->
      let k = String.sub spec 0 i in
      k = "diurnal" || k = "flash"
  | None -> false

(* --group fixed:<k> | uniform:<lo>:<hi> | pareto:<a>:<lo>:<hi> *)
let parse_group_spec spec =
  let fail () =
    Error
      (Printf.sprintf
         "bad --group %S (expected fixed:<k>, uniform:<min>:<max> or \
          pareto:<alpha>:<min>:<max>)"
         spec)
  in
  match String.split_on_char ':' spec with
  | [ "fixed"; k ] -> (
      match int_of_string_opt k with
      | Some k -> Ok (Qnet_online.Workload.Fixed k)
      | None -> fail ())
  | [ "uniform"; lo; hi ] -> (
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi -> Ok (Qnet_online.Workload.Uniform (lo, hi))
      | _ -> fail ())
  | [ "pareto"; a; lo; hi ] -> (
      match
        (float_of_string_opt a, int_of_string_opt lo, int_of_string_opt hi)
      with
      | Some alpha, Some lo, Some hi ->
          Ok (Qnet_online.Workload.Pareto_group { alpha; lo; hi })
      | _ -> fail ())
  | _ -> fail ()

let traffic_run verbose seed users switches degree qubits q alpha topology
    requests arrival_rate batch_size batch_period arrival_spec modulate_spec
    group_min group_max group_spec duration_min duration_max patience_min
    patience_max policy_name cache hier regions tiers_spec queue retry_base
    retry_max max_queue max_inflight rate_limit burst budget flow_gate gap
    fail_on_sla fault_mtbf fault_mttr fault_targets fault_regional
    fault_radius recovery_name checkpoint_every checkpoint_file
    journal_file restore_file reconfig_file halt_at
    drill_every jobs show_outcomes metrics =
  apply_verbose verbose;
  metrics_begin metrics;
  if checkpoint_every < 0. || not (Float.is_finite checkpoint_every) then begin
    prerr_endline "--checkpoint-every must be a finite time >= 0";
    exit 1
  end;
  if drill_every < 0. || not (Float.is_finite drill_every) then begin
    prerr_endline "--drill must be a finite time >= 0";
    exit 1
  end;
  if halt_at >= 0. && checkpoint_every <= 0. then begin
    prerr_endline "--halt-at requires --checkpoint-every";
    exit 1
  end;
  if journal_file <> None && checkpoint_every <= 0. && restore_file = None
  then begin
    prerr_endline "--journal requires --checkpoint-every or --restore";
    exit 1
  end;
  if
    drill_every > 0.
    && (checkpoint_every > 0. || restore_file <> None || halt_at >= 0.
       || journal_file <> None)
  then begin
    (* The drill owns the checkpoint/restore cycle itself, journal
       included. *)
    prerr_endline
      "--drill cannot be combined with --checkpoint-every, --restore, \
       --halt-at or --journal";
    exit 1
  end;
  if hier && tiers_spec <> "" then begin
    (* The tier ladder degrades across flat policies; the hier policy
       is a different oracle, not a rung on that ladder. *)
    prerr_endline "--hier cannot be combined with --tiers";
    exit 1
  end;
  let regions = resolve_regions ~switches regions in
  let spec = build_spec ~users ~switches ~degree ~qubits in
  match build_network_labeled ~seed ~topology ~regions ~spec with
  | Error (`Msg m) -> prerr_endline m; exit 1
  | Ok (g, labels) ->
      let params = Params.create ~alpha ~q () in
      let base_arrivals () =
        if batch_size > 0 then
          Qnet_online.Workload.Batched
            { period = batch_period; size = batch_size }
        else Qnet_online.Workload.Poisson arrival_rate
      in
      let arrivals, arrival_mod =
        match arrival_spec with
        | Some spec when is_modulation_spec spec -> (
            (* --arrival diurnal:…/flash:… modulates the default base
               process; an explicit base goes through --modulate. *)
            match parse_modulation_spec spec with
            | Ok m -> (base_arrivals (), Some m)
            | Error msg -> prerr_endline msg; exit 1)
        | Some spec -> (
            match parse_arrival_spec spec with
            | Ok a -> (a, None)
            | Error msg -> prerr_endline msg; exit 1)
        | None -> (base_arrivals (), None)
      in
      let modulation =
        match modulate_spec with
        | None -> arrival_mod
        | Some spec -> (
            if arrival_mod <> None then begin
              prerr_endline
                "--modulate cannot be combined with a modulating --arrival \
                 spec";
              exit 1
            end;
            match parse_modulation_spec spec with
            | Ok m -> Some m
            | Error msg -> prerr_endline msg; exit 1)
      in
      let group_size =
        match group_spec with
        | Some spec -> (
            match parse_group_spec spec with
            | Ok gsp -> gsp
            | Error msg -> prerr_endline msg; exit 1)
        | None -> Qnet_online.Workload.Uniform (group_min, group_max)
      in
      let wspec =
        try
          Qnet_online.Workload.spec ~requests ~arrivals ~group_size
            ~duration:(duration_min, duration_max)
            ~patience:(patience_min, patience_max)
            ?modulation ()
        with Invalid_argument msg -> prerr_endline msg; exit 1
      in
      let named name =
        match
          Qnet_online.Policy.of_name (if cache then "cached-" ^ name else name)
        with
        | Some p -> p
        | None ->
            prerr_endline
              ("unknown policy: " ^ name
             ^ " (expected prim|alg2|alg3|eqcast|flow, optionally with \
                --cache)");
            exit 1
      in
      let hier_oracle =
        if not hier then None
        else begin
          let part = hier_partition ~seed ~regions g labels in
          Format.printf "partition: %a@." Qnet_hier.Partition.pp part;
          Some (Qnet_hier.Oracle.create g params part)
        end
      in
      let policy, tier_stats =
        match (hier_oracle, tiers_spec) with
        | Some oracle, _ ->
            let p = Qnet_hier.Serve.policy oracle in
            ((if cache then Qnet_online.Policy.cached p else p), None)
        | None, "" -> (named policy_name, None)
        | None, spec ->
            let names =
              String.split_on_char ',' spec
              |> List.map String.trim
              |> List.filter (fun n -> n <> "")
            in
            if names = [] then begin
              prerr_endline "bad --tiers: no tier names";
              exit 1
            end;
            let fuel = if budget > 0 then budget else 4096 in
            let p, stats =
              Qnet_online.Policy.tiered ~fuel (List.map named names)
            in
            (p, Some stats)
      in
      let recovery =
        match Qnet_online.Engine.recovery_of_string recovery_name with
        | Ok r -> r
        | Error msg -> prerr_endline msg; exit 1
      in
      let overload =
        try
          Qnet_overload.Admission.make
            ?max_queue:(if max_queue > 0 then Some max_queue else None)
            ?max_inflight:(if max_inflight > 0 then Some max_inflight else None)
            ?rate:(if rate_limit > 0. then Some rate_limit else None)
            ?burst:(if burst > 0. then Some burst else None)
            ?infeasible:
              (if flow_gate then Some (Qnet_flow.Gate.predicate g) else None)
            ()
        with Invalid_argument msg -> prerr_endline msg; exit 1
      in
      let config =
        try
          Qnet_online.Engine.config
            ~admission:
              (if queue > 0 then Qnet_online.Engine.Queue queue
               else Qnet_online.Engine.Reject)
            ~retry_base ~retry_max ~recovery ~overload
            ?budget:
              (if budget > 0 && tier_stats = None then Some budget else None)
            ?tier_stats policy
        with Invalid_argument msg -> prerr_endline msg; exit 1
      in
      let faults =
        if fault_mtbf > 0. || fault_regional > 0. then begin
          let targets =
            match Qnet_faults.Model.target_of_string fault_targets with
            | Ok t -> t
            | Error msg -> prerr_endline msg; exit 1
          in
          try
            Some
              (Qnet_faults.Model.make
                 ~mtbf:(if fault_mtbf > 0. then fault_mtbf else infinity)
                 ~mttr:fault_mttr ~targets ~regional_rate:fault_regional
                 ~regional_radius:fault_radius
                   (* Distinct stream from the workload's, still driven
                      by the one --seed. *)
                 ~seed:(seed + 40_961) ())
          with Invalid_argument msg -> prerr_endline msg; exit 1
        end
        else None
      in
      let rng = Qnet_util.Prng.create (seed + 8_191) in
      let reqs =
        try Qnet_online.Workload.generate rng g wspec
        with Invalid_argument msg -> prerr_endline msg; exit 1
      in
      Format.printf "%a, seed %d@." Graph.pp g seed;
      Format.printf "workload: %a@." Qnet_online.Workload.pp_spec wspec;
      Printf.printf "policy: %s, queue bound %s\n"
        policy.Qnet_online.Policy.name
        (if queue > 0 then string_of_int queue else "none (reject)");
      (match faults with
      | None -> ()
      | Some model ->
          Format.printf "%a, recovery %s@." Qnet_faults.Model.pp model
            (Qnet_online.Engine.recovery_to_string recovery));
      (* With faults in play, eagerly invalidate the hier oracle's
         region caches on every element transition instead of waiting
         for lazy revalidation to notice. *)
      let on_health =
        Option.map
          (fun oracle health -> Qnet_hier.Serve.attach_health oracle health)
          hier_oracle
      in
      let reconfig =
        match reconfig_file with
        | None -> []
        | Some path -> (
            let data =
              match Qnet_util.Io.read_file path with
              | Ok data -> data
              | Error m ->
                  Printf.eprintf "cannot read reconfig file: %s\n" m;
                  exit 2
            in
            match Qnet_util.Sexp.of_string (String.trim data) with
            | Error m ->
                Printf.eprintf "reconfig %s: %s\n" path m;
                exit 2
            | Ok doc -> (
                match Qnet_online.Reconfig.of_sexp doc with
                | Error m ->
                    Printf.eprintf "reconfig %s: %s\n" path m;
                    exit 2
                | Ok events -> (
                    match Qnet_online.Reconfig.validate g events with
                    | Error m ->
                        Printf.eprintf "reconfig %s: %s\n" path m;
                        exit 2
                    | Ok () ->
                        Printf.printf "reconfig: %d change(s) from %s\n"
                          (List.length events) path;
                        events)))
      in
      (* Everything that shapes the deterministic run — a checkpoint
         only restores byte-identically under identical inputs.  --jobs
         is deliberately absent: serving is serial and the pool only
         parallelises the read-only verification pass, so a checkpoint
         cut at one --jobs level may be restored at another. *)
      let fingerprint =
        Format.asprintf
          "seed=%d topology=%s users=%d switches=%d degree=%.17g qubits=%d \
           q=%.17g alpha=%.17g regions=%d workload=[%a] policy=%s%s \
           queue=%d retry=%.17g/%.17g \
           overload=%d/%d/%.17g/%.17g/%d/%b \
           faults=%.17g/%.17g/%s/%.17g/%.17g recovery=%s reconfig=%s"
          seed topology users switches degree qubits q alpha regions
          Qnet_online.Workload.pp_spec wspec
          policy.Qnet_online.Policy.name
          (if tiers_spec <> "" then " tiers=" ^ tiers_spec else "")
          queue retry_base retry_max max_queue max_inflight rate_limit
          burst budget flow_gate fault_mtbf fault_mttr fault_targets
          fault_regional fault_radius recovery_name
          (if reconfig = [] then "none"
           else
             Digest.to_hex
               (Digest.string
                  (Qnet_util.Sexp.to_string
                     (Qnet_online.Reconfig.to_sexp reconfig))))
      in
      if drill_every > 0. then begin
        (* Crash-recovery drill: cut every --drill time units through
           real files, crash into every cut, recover and verify the
           journal replay against the uninterrupted run. *)
        let drill =
          try
            with_jobs jobs (fun pool ->
                Qnet_resilience.Drill.crash_restore ~config ?faults ~reconfig
                  ?pool ~every:drill_every g params ~requests:reqs)
          with Invalid_argument msg -> prerr_endline msg; exit 1
        in
        Format.printf "%a@." Qnet_resilience.Drill.pp drill;
        metrics_report metrics;
        exit (if Qnet_resilience.Drill.passed drill then 0 else 1)
      end;
      let restore_from, replay_verifier =
        match restore_file with
        | None -> (None, None)
        | Some path -> (
            (* Falls back to FILE.prev when the newest cut is bad, and
               picks up the journal tail for replay verification. *)
            match
              Qnet_resilience.Checkpoint.recover ~path ~config:fingerprint
                ?journal:journal_file ()
            with
            | Ok r ->
                List.iter
                  (fun w -> Printf.eprintf "warning: %s\n" w)
                  r.Qnet_resilience.Checkpoint.r_warnings;
                Printf.printf "restored from %s (checkpoint at t=%g"
                  r.Qnet_resilience.Checkpoint.r_path
                  (Qnet_online.Engine.snapshot_at
                     r.Qnet_resilience.Checkpoint.r_snapshot);
                if journal_file <> None then
                  Printf.printf ", %d journal record(s) to verify"
                    (List.length r.Qnet_resilience.Checkpoint.r_journal);
                print_endline ")";
                ( Some r.Qnet_resilience.Checkpoint.r_snapshot,
                  if journal_file <> None then
                    Some
                      (Qnet_resilience.Journal.verifier
                         r.Qnet_resilience.Checkpoint.r_journal)
                  else None )
            | Error msg -> prerr_endline msg; exit 2)
      in
      let writer =
        if checkpoint_every <= 0. then None
        else
          Some
            (Qnet_resilience.Checkpoint.writer ~path:checkpoint_file
               ~config:fingerprint ?journal:journal_file ())
      in
      let checkpoint =
        Option.map
          (fun w ->
            ( checkpoint_every,
              fun at snap ->
                (match Qnet_resilience.Checkpoint.cut w snap with
                | Ok _ -> ()
                | Error msg -> prerr_endline msg; exit 2);
                if halt_at >= 0. && at >= halt_at then begin
                  (* Flush the journal before the simulated crash: its
                     header attests the cut just written. *)
                  Qnet_resilience.Checkpoint.close w;
                  Printf.printf
                    "halted at checkpoint t=%g (state saved to %s; resume \
                     with --restore %s)\n"
                    at checkpoint_file checkpoint_file;
                  exit 0
                end ))
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
          with_jobs jobs (fun pool ->
              Qnet_online.Engine.run ~config ?faults ?pool ?on_health
                ?on_transition ?checkpoint ~reconfig ?restore_from g params
                ~requests:reqs)
        with Invalid_argument msg ->
          prerr_endline msg;
          (* A restore the engine refuses means the file lied about
             matching this run — a file problem, not a flag problem. *)
          exit (if restore_from <> None then 2 else 1)
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
      print_endline
        (Qnet_util.Table.to_string (Qnet_online.Engine.report_table report));
      if gap then begin
        (* How much headroom the network itself leaves: each one-shot
           method on the *full-capacity* instance against the flow LP
           ceiling.  A static companion to the dynamic SLA report above
           — it answers "was the policy the bottleneck, or the
           network?". *)
        let inst = Muerp.instance ~params g in
        let rows =
          List.map
            (fun alg ->
              let o =
                Muerp.solve ~rng:(Qnet_util.Prng.create seed) alg inst
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
      if show_outcomes then
        List.iter
          (fun (o : Qnet_online.Engine.outcome) ->
            let r = o.Qnet_online.Engine.request in
            let users =
              String.concat ","
                (List.map string_of_int r.Qnet_online.Workload.users)
            in
            match o.Qnet_online.Engine.resolution with
            | Qnet_online.Engine.Served { start; rate; attempts; tier; _ } ->
                Printf.printf
                  "  #%-3d t=%-7.2f {%s}  SERVED @%.2f  rate %.4g  \
                   attempts %d%s\n"
                  r.Qnet_online.Workload.id r.Qnet_online.Workload.arrival
                  users start rate attempts
                  (if tier > 0 then Printf.sprintf "  tier %d" tier else "")
            | Qnet_online.Engine.Rejected { at; queue_full } ->
                Printf.printf "  #%-3d t=%-7.2f {%s}  REJECTED @%.2f%s\n"
                  r.Qnet_online.Workload.id r.Qnet_online.Workload.arrival
                  users at
                  (if queue_full then " (queue full)" else "")
            | Qnet_online.Engine.Shed { at; reason } ->
                Printf.printf "  #%-3d t=%-7.2f {%s}  SHED @%.2f (%s)\n"
                  r.Qnet_online.Workload.id r.Qnet_online.Workload.arrival
                  users at
                  (match reason with
                  | Qnet_online.Engine.Rate_limit -> "rate limit"
                  | Qnet_online.Engine.Queue_pressure -> "queue pressure")
            | Qnet_online.Engine.Expired { at; attempts } ->
                Printf.printf
                  "  #%-3d t=%-7.2f {%s}  EXPIRED @%.2f  attempts %d\n"
                  r.Qnet_online.Workload.id r.Qnet_online.Workload.arrival
                  users at attempts
            | Qnet_online.Engine.Interrupted { start; at; recoveries; _ } ->
                Printf.printf
                  "  #%-3d t=%-7.2f {%s}  INTERRUPTED @%.2f (served from \
                   %.2f, %d recoveries)\n"
                  r.Qnet_online.Workload.id r.Qnet_online.Workload.arrival
                  users at start recoveries)
          outcomes;
      metrics_report metrics;
      if
        fail_on_sla >= 0.
        && report.Qnet_online.Engine.acceptance_ratio *. 100. < fail_on_sla
      then begin
        Printf.eprintf "SLA gate failed: acceptance %.2f%% < %.2f%%\n"
          (report.Qnet_online.Engine.acceptance_ratio *. 100.)
          fail_on_sla;
        exit 1
      end

let traffic_cmd =
  let requests_t =
    let doc = "Number of requests in the workload." in
    Arg.(value & opt int 100 & info [ "requests"; "n" ] ~docv:"N" ~doc)
  in
  let arrival_rate_t =
    let doc = "Poisson arrival rate (requests per time unit)." in
    Arg.(value & opt float 0.5 & info [ "arrival-rate" ] ~docv:"RATE" ~doc)
  in
  let batch_size_t =
    let doc =
      "Arrive in synchronised batches of $(docv) requests instead of a \
       Poisson process (0 disables batching)."
    in
    Arg.(value & opt int 0 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let batch_period_t =
    let doc = "Time between batches (with --batch)." in
    Arg.(value & opt float 5. & info [ "batch-period" ] ~docv:"T" ~doc)
  in
  let group_min_t =
    let doc = "Smallest user-group size." in
    Arg.(value & opt int 2 & info [ "group-min" ] ~docv:"N" ~doc)
  in
  let group_max_t =
    let doc = "Largest user-group size." in
    Arg.(value & opt int 4 & info [ "group-max" ] ~docv:"N" ~doc)
  in
  let duration_min_t =
    let doc = "Shortest lease duration." in
    Arg.(value & opt float 3. & info [ "duration-min" ] ~docv:"T" ~doc)
  in
  let duration_max_t =
    let doc = "Longest lease duration." in
    Arg.(value & opt float 8. & info [ "duration-max" ] ~docv:"T" ~doc)
  in
  let patience_min_t =
    let doc = "Shortest deadline slack before a request abandons." in
    Arg.(value & opt float 0. & info [ "patience-min" ] ~docv:"T" ~doc)
  in
  let patience_max_t =
    let doc = "Longest deadline slack before a request abandons." in
    Arg.(value & opt float 10. & info [ "patience-max" ] ~docv:"T" ~doc)
  in
  let policy_t =
    let doc =
      "Serving policy: prim, alg2, alg3, eqcast or flow (the LP \
       relaxation + randomized rounding optimizer, falling back to prim \
       when rounding fails)."
    in
    Arg.(value & opt string "prim" & info [ "policy" ] ~docv:"NAME" ~doc)
  in
  let cache_t =
    let doc = "Memoise trees per user group (cached-* policy variant)." in
    Arg.(value & flag & info [ "cache" ] ~doc)
  in
  let queue_t =
    let doc = "Waiting-queue bound (0 = reject unroutable arrivals)." in
    Arg.(value & opt int 32 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let retry_base_t =
    let doc = "Initial retry backoff after a failed routing attempt." in
    Arg.(value & opt float 0.5 & info [ "retry-base" ] ~docv:"T" ~doc)
  in
  let retry_max_t =
    let doc = "Retry backoff cap (doubling saturates here)." in
    Arg.(value & opt float 8. & info [ "retry-max" ] ~docv:"T" ~doc)
  in
  let fault_mtbf_t =
    let doc =
      "Mean time between failures per infrastructure element (0 disables \
       the independent failure process)."
    in
    Arg.(value & opt float 0. & info [ "fault-mtbf" ] ~docv:"T" ~doc)
  in
  let fault_mttr_t =
    let doc = "Mean time to repair a failed element." in
    Arg.(value & opt float 10. & info [ "fault-mttr" ] ~docv:"T" ~doc)
  in
  let fault_targets_t =
    let doc =
      "Element class the failure process hits: $(b,links), $(b,switches) \
       or $(b,both)."
    in
    Arg.(value & opt string "both" & info [ "fault-targets" ] ~docv:"KIND" ~doc)
  in
  let fault_regional_t =
    let doc =
      "Correlated regional-outage rate (outages per time unit; 0 \
       disables)."
    in
    Arg.(value & opt float 0. & info [ "fault-regional" ] ~docv:"RATE" ~doc)
  in
  let fault_radius_t =
    let doc = "Radius of a regional outage (km, in layout units)." in
    Arg.(value & opt float 100. & info [ "fault-radius" ] ~docv:"R" ~doc)
  in
  let recovery_t =
    let doc =
      "Mid-lease fault response: $(b,abort), $(b,repair) (replace dead \
       channels) or $(b,reroute) (route the group afresh)."
    in
    Arg.(value & opt string "repair" & info [ "recovery" ] ~docv:"MODE" ~doc)
  in
  let outcomes_t =
    let doc = "Also print one line per request outcome." in
    Arg.(value & flag & info [ "outcomes" ] ~doc)
  in
  let arrival_spec_t =
    let doc =
      "Arrival process spec: $(b,poisson:<rate>), \
       $(b,batch:<size>:<period>) or $(b,pareto:<alpha>:<min>:<max>) \
       (bounded-Pareto inter-arrival gaps).  Overrides --arrival-rate \
       and --batch.  Also accepts $(b,diurnal:<period>:<amplitude>) and \
       $(b,flash:<at>:<width>:<boost>), which modulate the default base \
       process (see --modulate to compose with an explicit base)."
    in
    Arg.(
      value & opt (some string) None & info [ "arrival" ] ~docv:"SPEC" ~doc)
  in
  let group_spec_t =
    let doc =
      "Group-size spec: $(b,fixed:<k>), $(b,uniform:<min>:<max>) or \
       $(b,pareto:<alpha>:<min>:<max>).  Overrides --group-min/--group-max."
    in
    Arg.(value & opt (some string) None & info [ "group" ] ~docv:"SPEC" ~doc)
  in
  let tiers_t =
    let doc =
      "Graceful-degradation tiers: comma-separated policy names tried in \
       order under per-tier fuel budgets and circuit breakers (e.g. \
       $(b,alg3,alg2,prim)).  Replaces --policy."
    in
    Arg.(value & opt string "" & info [ "tiers" ] ~docv:"NAMES" ~doc)
  in
  let max_queue_t =
    let doc =
      "Admission control: shed cheapest-to-refuse requests once the \
       waiting queue holds $(docv) entries (0 = unlimited)."
    in
    Arg.(value & opt int 0 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let max_inflight_t =
    let doc =
      "Admission control: defer new serves while $(docv) leases are \
       active (0 = unlimited)."
    in
    Arg.(value & opt int 0 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let rate_t =
    let doc =
      "Token-bucket admission rate (requests per time unit; 0 = \
       unlimited)."
    in
    Arg.(value & opt float 0. & info [ "rate" ] ~docv:"RATE" ~doc)
  in
  let burst_t =
    let doc = "Token-bucket burst size (defaults to max 1 --rate)." in
    Arg.(value & opt float 0. & info [ "burst" ] ~docv:"N" ~doc)
  in
  let budget_t =
    let doc =
      "Solver fuel budget in Dijkstra node expansions per routing \
       attempt (0 = unmetered).  With --tiers this is the per-tier fuel."
    in
    Arg.(value & opt int 0 & info [ "budget" ] ~docv:"FUEL" ~doc)
  in
  let flow_gate_t =
    let doc =
      "Admission control: reject provably-unservable groups (users not \
       connected over relay-capable switches) before any solver search, \
       via the flow subsystem's feasibility oracle.  Sound — it never \
       rejects a group any policy could serve."
    in
    Arg.(value & flag & info [ "flow-gate" ] ~doc)
  in
  let gap_t =
    let doc =
      "After the SLA report, print each one-shot method's optimality \
       gap against the flow LP bound on the full-capacity instance."
    in
    Arg.(value & flag & info [ "gap" ] ~doc)
  in
  let fail_on_sla_t =
    let doc =
      "Exit nonzero when the acceptance ratio falls below $(docv) \
       percent (negative disables the gate)."
    in
    Arg.(value & opt float (-1.) & info [ "fail-on-sla" ] ~docv:"PCT" ~doc)
  in
  let modulate_t =
    let doc =
      "Long-horizon arrival-rate modulation composed with the base \
       arrival process: $(b,diurnal:<period>:<amplitude>) (sinusoidal \
       day/night curve) or $(b,flash:<at>:<width>:<boost>) (flash \
       crowd).  The same grammar is accepted directly by --arrival."
    in
    Arg.(
      value & opt (some string) None & info [ "modulate" ] ~docv:"SPEC" ~doc)
  in
  let checkpoint_every_t =
    let doc =
      "Cut a durable engine checkpoint every $(docv) time units (0 \
       disables).  Each cut atomically replaces --checkpoint, keeping \
       the previous one as FILE.prev."
    in
    Arg.(value & opt float 0. & info [ "checkpoint-every" ] ~docv:"DT" ~doc)
  in
  let checkpoint_file_t =
    let doc = "Checkpoint file path (with --checkpoint-every)." in
    Arg.(
      value
      & opt string "muerp.ckpt"
      & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let journal_t =
    let doc =
      "Write-ahead event journal path (with --checkpoint-every or \
       --restore).  Every committed engine transition since the last \
       cut is appended (fsync-batched); on --restore the recovered run \
       is verified to re-emit the journal exactly."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let restore_t =
    let doc =
      "Resume an interrupted run from a checkpoint file written under \
       the same flags, falling back to FILE.prev (with a warning) when \
       the newest cut is damaged.  The continuation reproduces the \
       uninterrupted run's report byte-for-byte."
    in
    Arg.(value & opt (some string) None & info [ "restore" ] ~docv:"FILE" ~doc)
  in
  let reconfig_file_t =
    let doc =
      "Apply live topology reconfiguration events from a \
       muerp-reconfig/1 s-expression file: switch join/leave, link \
       add/remove, and qubit re-provisioning, mid-run and without \
       draining traffic."
    in
    Arg.(
      value & opt (some string) None & info [ "reconfig" ] ~docv:"FILE" ~doc)
  in
  let halt_at_t =
    let doc =
      "Crash-recovery drills: exit 0 after writing the first checkpoint \
       at or past time $(docv), simulating an interrupted run (negative \
       disables; requires --checkpoint-every)."
    in
    Arg.(value & opt float (-1.) & info [ "halt-at" ] ~docv:"T" ~doc)
  in
  let drill_t =
    let doc =
      "Run a crash-recovery drill instead of a plain run: cut a \
       checkpoint (and journal) to real files every $(docv) time units, \
       crash into every cut, recover, verify the journal replay and \
       diff each restored continuation against the uninterrupted run \
       (0 disables; exits nonzero on any divergence)."
    in
    Arg.(value & opt float 0. & info [ "drill" ] ~docv:"DT" ~doc)
  in
  let info =
    Cmd.info "traffic"
      ~doc:
        "Serve a dynamic multi-user request workload with the online \
         traffic engine."
  in
  Cmd.v info
    Term.(
      const traffic_run $ verbose_t $ seed_t $ users_t $ switches_t
      $ degree_t $ qubits_t $ q_t $ alpha_t $ topology_t $ requests_t
      $ arrival_rate_t $ batch_size_t $ batch_period_t $ arrival_spec_t
      $ modulate_t
      $ group_min_t $ group_max_t $ group_spec_t $ duration_min_t
      $ duration_max_t $ patience_min_t $ patience_max_t $ policy_t
      $ cache_t $ hier_t $ regions_t $ tiers_t $ queue_t $ retry_base_t
      $ retry_max_t
      $ max_queue_t $ max_inflight_t $ rate_t $ burst_t $ budget_t
      $ flow_gate_t $ gap_t
      $ fail_on_sla_t $ fault_mtbf_t $ fault_mttr_t $ fault_targets_t
      $ fault_regional_t $ fault_radius_t $ recovery_t
      $ checkpoint_every_t $ checkpoint_file_t $ journal_t $ restore_t
      $ reconfig_file_t $ halt_at_t $ drill_t $ jobs_t
      $ outcomes_t $ metrics_t)

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
