(* Integration tests for the muerp CLI: run the real binary and check
   its output.  The binary is declared as a dune dependency and lives at
   a fixed relative path inside the build sandbox. *)

(* Resolve the binary relative to this test executable (robust to both
   `dune runtest`, which runs in the sandboxed test directory, and
   `dune exec test/test_cli.exe`, which runs in the project root). *)
let binary =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name
       (Filename.concat "bin" "muerp_cli.exe"))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run args =
  let out = Filename.temp_file "muerp_cli" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote binary) args
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let content =
    let ic = open_in out in
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        Sys.remove out)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (code, content)

(* Like [run], but stdout and stderr apart. *)
let run_split args =
  let read path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        Sys.remove path)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let out = Filename.temp_file "muerp_cli" ".out" in
  let err = Filename.temp_file "muerp_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote binary) args
         (Filename.quote out) (Filename.quote err))
  in
  let out = read out in
  (code, out, read err)

let run_stdout args =
  let code, out, _ = run_split args in
  (code, out)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec scan i =
    i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1))
  in
  scan 0

let test_binary_present () =
  check_bool "binary exists in sandbox" true (Sys.file_exists binary)

let test_help () =
  let code, out = run "--help=plain" in
  check_int "exit 0" 0 code;
  List.iter
    (fun sub -> check_bool (sub ^ " listed") true (contains out sub))
    [ "solve"; "topology"; "experiment"; "simulate"; "sweep"; "dot";
      "fidelity"; "groups"; "reference"; "schedule" ]

let test_solve () =
  let code, out = run "solve --users 4 --switches 12 --seed 2" in
  check_int "exit 0" 0 code;
  check_bool "runs all three algorithms" true
    (contains out "alg2-optimal" && contains out "alg3-conflict-free"
   && contains out "alg4-prim");
  check_bool "baselines included" true
    (contains out "e-q-cast" && contains out "n-fusion");
  check_bool "reports rates" true (contains out "rate")

let test_topology_save_and_solve_load () =
  let file = Filename.temp_file "cli_net" ".sexp" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      let code, out =
        run (Printf.sprintf "topology --users 3 --switches 8 --save %s" file)
      in
      check_int "topology exit 0" 0 code;
      check_bool "announces save" true (contains out "saved to");
      check_bool "file written" true (Sys.file_exists file);
      let code, out = run (Printf.sprintf "solve --load %s" file) in
      check_int "solve --load exit 0" 0 code;
      check_bool "solves the loaded net" true (contains out "alg3-conflict-free"))

let test_dot () =
  let code, out = run "dot --users 3 --switches 6 --highlight" in
  check_int "exit 0" 0 code;
  check_bool "valid DOT header" true (contains out "graph qnet {");
  check_bool "closes" true (contains out "}")

let test_experiment_fig5 () =
  let code, out = run "experiment fig5 --replications 2" in
  check_int "exit 0" 0 code;
  check_bool "prints fig5 table" true (contains out "fig5");
  check_bool "all methods present" true
    (contains out "Alg-2" && contains out "N-Fusion")

let test_simulate () =
  let code, out = run "simulate --users 4 --switches 12 --trials 20000" in
  check_int "exit 0" 0 code;
  check_bool "compares analytic and empirical" true
    (contains out "analytic rate" && contains out "empirical rate")

let test_fidelity () =
  let code, out = run "fidelity --users 4 --switches 15 --threshold 0.9" in
  check_int "exit 0" 0 code;
  check_bool "reports budgets" true (contains out "fidelity budget");
  check_bool "runs both solvers" true
    (contains out "kruskal" && contains out "prim")

let test_groups () =
  let code, out = run "groups --groups 2 --group-size 2 --switches 20" in
  check_int "exit 0" 0 code;
  check_bool "per-group report" true (contains out "group 0");
  check_bool "summary" true (contains out "all served")

let test_reference () =
  let code, out = run "reference nsfnet --users 4" in
  check_int "exit 0" 0 code;
  check_bool "names the topology" true (contains out "nsfnet");
  let code, _ = run "reference atlantis" in
  check_bool "unknown reference fails" true (code <> 0)

let test_schedule () =
  let code, out = run "schedule -n 5 --switches 20" in
  check_int "exit 0" 0 code;
  check_bool "summary line" true (contains out "requests:");
  check_bool "per-request lines" true (contains out "#0")

let test_sweep () =
  let code, out = run "sweep qubits 2,4 --replications 2" in
  check_int "exit 0" 0 code;
  check_bool "one row per value" true (contains out "| 2" && contains out "| 4")

let test_solve_metrics () =
  let code, out = run "solve --users 4 --switches 12 --seed 2 --metrics" in
  check_int "exit 0" 0 code;
  check_bool "telemetry table follows the solve report" true
    (contains out "telemetry:");
  check_bool "graph-layer work counters" true
    (contains out "graph.dijkstra.heap_pushes"
    && contains out "graph.dijkstra.edge_relaxations");
  check_bool "solver wall-time histograms" true
    (contains out "solve.alg3-conflict-free.seconds");
  let code, out =
    run "solve --users 4 --switches 12 --seed 2 --metrics=csv"
  in
  check_int "csv exit 0" 0 code;
  check_bool "csv header" true (contains out "metric,kind,value");
  let code, _ = run "solve --users 4 --switches 12 --metrics=bogus" in
  check_bool "unknown metrics format fails" true (code <> 0)

let test_bad_arguments () =
  let code, _ = run "experiment figNaN" in
  check_bool "unknown figure fails" true (code <> 0);
  let code, _ = run "sweep nonsense 1,2" in
  check_bool "unknown sweep parameter fails" true (code <> 0);
  let code, _ = run "solve --topology mystery" in
  check_bool "unknown topology fails" true (code <> 0)

(* The MD5 of [muerp traffic] stdout on a fixed set of flag sets: any
   change to how the flags become a network, a workload, a policy or a
   fault model shows up here as a digest mismatch. *)
let pinned_traffic =
  [
    ("", "bf5171e945bffcc634c7894e28f3ccc5");
    ("--fault-mtbf 30 --recovery reroute", "4973e41fbafa550c90d1bd9f023434a7");
    ( "--tiers alg3,prim --budget 400 --max-queue 8 --max-inflight 10 --rate 2",
      "d983019b5aa42cc5461b84b0023420da" );
    ("--topology continent --hier", "e15fe14cf3a8fe9582485c01f18c76e4");
    ( "--arrival batch:8:1.5 --modulate diurnal:60:0.5 --group pareto:1.5:2:5",
      "d0b954363fe0bf7acd6cd261e71e5932" );
  ]

let test_pinned_traffic () =
  List.iter
    (fun (flags, digest) ->
      let code, out = run_stdout ("traffic " ^ flags) in
      check_int (Printf.sprintf "[%s] exit 0" flags) 0 code;
      Alcotest.(check string)
        (Printf.sprintf "[%s] stdout digest" flags)
        digest
        (Digest.to_hex (Digest.string out)))
    pinned_traffic

(* The MD5 of [muerp experiment all -r 3] stdout: every paper figure
   and table at three replications.  Offline Algorithm 4 and the other
   solvers must keep these reports byte for byte. *)
let test_pinned_experiment () =
  let code, out = run_stdout "experiment all -r 3" in
  check_int "experiment all exit 0" 0 code;
  Alcotest.(check string)
    "experiment all stdout digest" "806ab53fc9c47cc2ef8309e41722ae66"
    (Digest.to_hex (Digest.string out))

(* A bad setting exits 2 with a one-line message naming its flag,
   before anything reaches stdout — never an uncaught exception. *)
let check_rejected args flag =
  let code, out, err = run_split args in
  check_int (args ^ ": exit 2") 2 code;
  Alcotest.(check string) (args ^ ": nothing on stdout") "" out;
  check_bool (args ^ ": names " ^ flag) true (contains err flag);
  check_bool (args ^ ": no internal error") false
    (contains err "internal error" || contains err "uncaught exception")

(* The network flags every network subcommand shares, and the settings
   a single subcommand owns: each value used to crash with an uncaught
   Invalid_argument, or (schedule --gap) to run on NaN. *)
let test_bad_network_flags () =
  List.iter
    (fun (cmd, flags) ->
      List.iter (fun (arg, flag) -> check_rejected (cmd ^ " " ^ arg) flag) flags)
    [
      ( "solve",
        [ ("-q 2", "--swap-rate"); ("--alpha=-1", "--alpha");
          ("--degree=nan", "--degree"); ("--qubits=-1", "--qubits") ] );
      ("dot", [ ("--degree=nan", "--degree"); ("--qubits=-1", "--qubits") ]);
      ( "traffic",
        [ ("-q 2", "--swap-rate"); ("--alpha=-1", "--alpha");
          ("--degree=nan", "--degree"); ("--qubits=-1", "--qubits") ] );
      ( "sweep",
        [ ("users abc", "users"); ("q 2 -r 1", "--swap-rate");
          ("qubits 2 -r 0", "--replications") ] );
      ("schedule", [ ("--max-group 1", "--max-group"); ("--gap nan", "--gap") ]);
      ("fidelity", [ ("--f0 nan", "--f0"); ("--threshold 2", "--threshold") ]);
      ("simulate", [ ("--trials 0", "--trials") ]);
      ("experiment", [ ("fig5 -r 0", "--replications") ]);
    ]

(* Values that used to run silently as "off" (a negative or NaN
   sentinel) or to crash, each against the flag it must name. *)
let hostile_traffic =
  [
    ("--rate=nan", "--rate");
    ("--halt-at=nan", "--halt-at");
    ("--halt-at=-5", "--halt-at");
    ("--queue=-1", "--queue");
    ("--max-queue=-4", "--max-queue");
    ("--max-inflight=-1", "--max-inflight");
    ("--burst=-2", "--burst");
    ("--budget=-5", "--budget");
    ("--fault-mtbf=nan", "--fault-mtbf");
    ("--fault-mtbf=-1", "--fault-mtbf");
    ("--fault-regional=nan", "--fault-regional");
    ("--fault-regional=-1", "--fault-regional");
    ("--fault-radius=nan", "--fault-radius");
    ("--fail-on-sla=nan", "--fail-on-sla");
    ("--tiers=", "--tiers");
    ("--tiers=" ^ Filename.quote "alg3>>prim", "--tiers");
    ("--arrival=pareto:x", "--arrival");
    ("--group=uniform:5:2", "--group");
    ("--duration-min=nan", "--duration-min");
    (* Settings no constructor refuses, whose arrival stream overflows. *)
    ("--arrival=batch:1:1e308", "--arrival");
    ("--arrival=poisson:1e-320", "--arrival");
    (* A retired policy name must not resolve. *)
    ("--policy=cached-prim", "--policy");
  ]

let test_hostile_values () =
  List.iter
    (fun (arg, flag) -> check_rejected ("traffic -n 5 " ^ arg) flag)
    hostile_traffic;
  (* Cmdliner's own type errors keep its exit code. *)
  let code, _ = run "traffic --rate=abc" in
  check_int "--rate=abc: exit 124" 124 code

(* A halted faulty run leaves a cut, its FILE.prev and a journal in a
   scratch directory; [f] gets the directory and the run's flags. *)
let with_halted_run f =
  let dir = Filename.temp_dir "cli_ckpt" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let flags =
        "traffic --seed 13 -n 30 --switches 20 --fault-mtbf 20 --fault-mttr 5"
      in
      let ckpt = Filename.concat dir "run.ckpt" in
      let journal = Filename.concat dir "run.journal" in
      let code, out =
        run
          (Printf.sprintf "%s --checkpoint-every 3 --checkpoint %s --journal %s \
                           --halt-at 12"
             flags (Filename.quote ckpt) (Filename.quote journal))
      in
      check_int "halted run exit 0" 0 code;
      check_bool "halted" true (contains out "halted at checkpoint");
      f ~flags ~ckpt ~journal)

let test_inspect_cut () =
  with_halted_run (fun ~flags:_ ~ckpt ~journal:_ ->
      let code, out = run ("inspect " ^ Filename.quote ckpt) in
      check_int "exit 0" 0 code;
      check_bool "header" true (contains out "muerp-checkpoint/2");
      check_bool "config" true (contains out "config: seed=13");
      check_bool "snapshot text view" true
        (contains out "(muerp-engine-snapshot/2" && contains out "(events"))

(* The checkpoint fingerprint, pinned: a cut written by an older
   binary restores only while this string stays byte-identical. *)
let test_pinned_fingerprint () =
  with_halted_run (fun ~flags:_ ~ckpt ~journal:_ ->
      let code, out = run_stdout ("inspect " ^ Filename.quote ckpt) in
      check_int "exit 0" 0 code;
      let config =
        List.find_opt
          (String.starts_with ~prefix:"config: ")
          (String.split_on_char '\n' out)
      in
      Alcotest.(check (option string))
        "config line"
        (Some
           "config: seed=13 topology=waxman users=10 switches=20 degree=6 \
            qubits=4 q=0.90000000000000002 alpha=0.0001 regions=4 \
            workload=[30 requests, poisson 0.5/t, groups 2-4, lease 3-8t, \
            patience 0-10t] policy=prim queue=32 retry=0.5/8 \
            overload=0/0/0/0/0/false faults=20/5/both/0/100 recovery=repair \
            reconfig=none")
        config)

let test_inspect_journal () =
  with_halted_run (fun ~flags ~ckpt ~journal ->
      (* Restore and run on with a fresh cut cadence: the journal now
         holds the transitions past the newest cut. *)
      let code, _ =
        run
          (Printf.sprintf "%s --restore %s --checkpoint-every 100 \
                           --checkpoint %s --journal %s"
             flags (Filename.quote ckpt) (Filename.quote ckpt)
             (Filename.quote journal))
      in
      check_int "restored run exit 0" 0 code;
      let code, out = run ("inspect " ^ Filename.quote journal) in
      check_int "exit 0" 0 code;
      check_bool "header" true (contains out "muerp-journal/1");
      check_bool "names the cut it extends" true (contains out "extends cut");
      check_bool "one line per record" true
        (contains out "admit lease" && contains out "release lease"))

let test_inspect_other () =
  let file = Filename.temp_file "cli_other" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc "hello\n";
      close_out oc;
      let code, out = run ("inspect " ^ Filename.quote file) in
      check_int "exit 2" 2 code;
      check_bool "names the file" true (contains out file);
      let code, out = run "inspect /nonexistent/muerp.ckpt" in
      check_int "missing file exit 2" 2 code;
      check_bool "missing file named" true (contains out "/nonexistent/muerp.ckpt"))

(* A cut whose footer checks out but whose body is not a snapshot: the
   restore names the file and exits 2, never a backtrace. *)
let test_restore_corrupt_body () =
  with_halted_run (fun ~flags ~ckpt ~journal:_ ->
      let ic = open_in_bin ckpt in
      let header = input_line ic in
      let config = input_line ic in
      close_in ic;
      let body = Printf.sprintf "%s\n%s\n\x07\xff\n" header config in
      let oc = open_out_bin ckpt in
      Printf.fprintf oc "%sintegrity %s %d\n" body
        (Digest.to_hex (Digest.string body))
        (String.length body);
      close_out oc;
      Sys.remove (ckpt ^ ".prev");
      let code, out = run (Printf.sprintf "%s --restore %s" flags (Filename.quote ckpt)) in
      check_int "exit 2" 2 code;
      check_bool "names the file" true (contains out ckpt);
      check_bool "says the body is malformed" true
        (contains out "malformed snapshot body"))

(* A cut written under the retired cached-prim policy carries that
   name in its config fingerprint: the restore refuses it as written
   under different flags, exit 2 with nothing on stdout. *)
let test_restore_cached_cut () =
  with_halted_run (fun ~flags ~ckpt ~journal:_ ->
      let data = In_channel.with_open_bin ckpt In_channel.input_all in
      let line_end from = String.index_from data from '\n' + 1 in
      let p1 = line_end 0 in
      let p2 = line_end p1 in
      (* The footer is the last line; everything before it is the body. *)
      let footer = String.rindex_from data (String.length data - 2) '\n' + 1 in
      let config =
        String.sub data p1 (p2 - p1)
        |> String.split_on_char ' '
        |> List.map (function "policy=prim" -> "policy=cached-prim" | w -> w)
        |> String.concat " "
      in
      let body =
        String.sub data 0 p1 ^ config ^ String.sub data p2 (footer - p2)
      in
      check_bool "config rewritten" true (contains config "policy=cached-prim");
      let oc = open_out_bin ckpt in
      Printf.fprintf oc "%sintegrity %s %d\n" body
        (Digest.to_hex (Digest.string body))
        (String.length body);
      close_out oc;
      Sys.remove (ckpt ^ ".prev");
      let args = Printf.sprintf "%s --restore %s" flags (Filename.quote ckpt) in
      let code, out, err = run_split args in
      check_int "exit 2" 2 code;
      Alcotest.(check string) "nothing on stdout" "" out;
      check_bool "reports the config mismatch" true
        (contains err "written under different flags"
        && contains err "policy=cached-prim");
      check_bool "no internal error" false
        (contains err "internal error" || contains err "uncaught exception"))

(* Every file-reading surface, handed a directory: exit 2 with the path
   in the message, never a bare errno string or a backtrace. *)
let test_directory_argument cmd () =
  let dir = Filename.temp_dir "cli_dir" "" in
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      let code, out = run (cmd ^ " " ^ Filename.quote dir) in
      check_int "exit 2" 2 code;
      check_bool "names the path" true (contains out dir);
      check_bool "says it is a directory" true (contains out "is a directory"))

let directory_surfaces =
  [
    ("--restore", "traffic -n 5 --restore");
    ("--reconfig", "traffic -n 5 --reconfig");
    ("--load", "solve --load");
    ("inspect", "inspect");
  ]

let () =
  Alcotest.run "cli"
    [
      ( "commands",
        [
          Alcotest.test_case "binary present" `Quick test_binary_present;
          Alcotest.test_case "help" `Quick test_help;
          Alcotest.test_case "solve" `Quick test_solve;
          Alcotest.test_case "save/load" `Quick test_topology_save_and_solve_load;
          Alcotest.test_case "dot" `Quick test_dot;
          Alcotest.test_case "experiment" `Slow test_experiment_fig5;
          Alcotest.test_case "simulate" `Slow test_simulate;
          Alcotest.test_case "fidelity" `Quick test_fidelity;
          Alcotest.test_case "groups" `Quick test_groups;
          Alcotest.test_case "reference" `Quick test_reference;
          Alcotest.test_case "schedule" `Quick test_schedule;
          Alcotest.test_case "sweep" `Quick test_sweep;
          Alcotest.test_case "solve --metrics" `Quick test_solve_metrics;
          Alcotest.test_case "bad arguments" `Quick test_bad_arguments;
          Alcotest.test_case "bad network flags" `Quick test_bad_network_flags;
          Alcotest.test_case "hostile values" `Quick test_hostile_values;
          Alcotest.test_case "inspect cut" `Quick test_inspect_cut;
          Alcotest.test_case "pinned fingerprint" `Quick
            test_pinned_fingerprint;
          Alcotest.test_case "pinned traffic" `Quick test_pinned_traffic;
          Alcotest.test_case "pinned experiment" `Quick test_pinned_experiment;
          Alcotest.test_case "inspect journal" `Quick test_inspect_journal;
          Alcotest.test_case "inspect other" `Quick test_inspect_other;
          Alcotest.test_case "restore corrupt body" `Quick
            test_restore_corrupt_body;
          Alcotest.test_case "restore cached cut" `Quick
            test_restore_cached_cut;
        ]
        @ List.map
            (fun (name, cmd) ->
              Alcotest.test_case ("directory " ^ name) `Quick
                (test_directory_argument cmd))
            directory_surfaces );
    ]
