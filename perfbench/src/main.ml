(* Serving benchmark program.  Each mode prints one JSON line:

     main.exe measure W SEED SECONDS DIR   end-to-end metrics, untraced
     main.exe trace   W SEED SECONDS DIR   per-layer metrics
     main.exe heap    W SEED DIR           top heap of one pass

   W is flat-serve | overload-burst | chaos-checkpoint; DIR receives the
   checkpoint and journal files.  perfbench/run.py builds this program,
   combines the modes and prints the benchmark's result line. *)

open Perfbench
module S = Serving
module Metrics = Qnet_telemetry.Metrics

let ns_s ns = float_of_int ns *. 1e-9
let ns_ms ns = float_of_int ns *. 1e-6
let ns_us ns = float_of_int ns *. 1e-3
let ratio a b = if b = 0. then 0. else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(* The tail of a pass is what sporadic stalls of the shared VM move
   first (its kernel counts 1.6% of CPU time as stolen by the
   hypervisor): on chaos-checkpoint the median over passes of the
   per-pass p99 moved 31% between two sets of runs of the same code
   while p50 moved under 1%.  A change to the program's own tail moves
   every pass, so the lower quartile over passes keeps it and drops the
   stalled passes. *)
let lower_quartile l =
  let a = Array.of_list l in
  Array.sort compare a;
  if Array.length a = 0 then nan else a.((Array.length a - 1) / 4)

let median_f l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* JSON numbers with every digit; [null] (which run.py reports as a
   failed run) when no passes were left to compute a metric from. *)
let json_num v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let emit ~correct ~attempted ~failed ~digest fields =
  let body =
    List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_num v)) fields
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"digest\": %S, \
     \"metrics\": {%s}}\n"
    correct attempted failed digest
    (String.concat ", " body)

(* Set-up is deterministic; its time is the median of in-process
   repetitions: [setup_reps_per_pass] before each timed serving pass, so
   the samples span the whole run instead of a fraction of a second of
   it; the traced run takes [setup_reps] up front. *)
let setup_reps = 9
let setup_reps_per_pass = 3

let setups kind ~seed =
  let l = List.init setup_reps (fun _ -> S.setup kind ~seed) in
  (List.hd l, l)

let median_ns f l = median_f (List.map (fun i -> ns_s (f i)) l)

let cuts_of kind dir =
  match kind with S.Chaos_checkpoint -> S.Durable dir | _ -> S.No_cuts

(* On workloads that cut no checkpoints themselves, the checkpoint
   metrics come from durability probes, so their serving metrics stay
   free of snapshot work: after each timed pass, the workload's first
   [probe_requests] requests are served again with the chaos-checkpoint
   sink, cut [probe_cuts] times evenly over their arrival span.  The
   probes interleave with the timed passes so their cuts sample the
   whole run, not one second of the disk's behaviour. *)
let probe_requests = 800
let probe_cuts = 40.

let probe_prefix (inp : S.inputs) =
  let prefix = List.filteri (fun i _ -> i < probe_requests) inp.requests in
  let span =
    List.fold_left
      (fun m (r : Qnet_online.Workload.request) -> Float.max m r.arrival)
      0. prefix
  in
  (prefix, span /. probe_cuts)

(* Checkpoint bytes per cut of the pass that just ran. *)
let bytes_per_cut (t : S.timing) ~cuts0 ~bytes0 =
  ratio_i (t.bytes - bytes0) (t.cut.n - cuts0)

(* A quantile of recorded ns samples, in us; 0 when the layer recorded
   nothing (it is idle on the workload). *)
let q_us (s : S.samples) q = if s.n = 0 then 0. else S.quantile (S.sorted s) q *. 1e-3

(* The report gate: each pass of a kind must be consistent and match
   the first pass of that kind; a pass that does not is a failed
   operation, and its timing is dropped. *)
type pinned = { mutable first : S.pass option; mutable n : int; mutable bad : int }

let pinned () = { first = None; n = 0; bad = 0 }

let check pins (p : S.pass) =
  let first = Option.value pins.first ~default:p in
  if Option.is_none pins.first then pins.first <- Some p;
  pins.n <- pins.n + 1;
  let ok = S.same p first && S.consistent p in
  if not ok then pins.bad <- pins.bad + 1;
  ok

(* Machine-speed calibration (see Calib): [calib_runs] kernel runs
   before the first pass and after each pass; all of a run's timings are
   scaled by reference / the median of its kernel runs.  That follows the
   drift between runs, which lasts minutes, without adding the kernel's
   own pass-to-pass noise; drift within a run is left to the medians
   over passes. *)
let calib_runs = 3
let calib () = List.init calib_runs (fun _ -> Calib.sample ())

(* Scales samples [from, upto) of a buffer by [f]. *)
let scale (s : S.samples) ~from ~upto f =
  for i = from to min upto (Array.length s.buf) - 1 do
    s.buf.(i) <- int_of_float (float_of_int s.buf.(i) *. f)
  done

(* A run serves [instances] traffic draws made from its seed, one per
   pass in turn, so its figures average over several draws and move less
   from one seed to the next.  Instance 0 is the one the heap process
   and the traced run serve, and whose report digest is pinned. *)
let instances = 4
let instance_seed seed k = (seed * instances) + k

let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* What one timed pass recorded, unscaled. *)
type pass_record = {
  instance : int;
  ok : bool;  (** Passed the report gate. *)
  wall : float;  (** s *)
  setups : int list;  (** ns *)
  decide : int * int;  (** Its range in the decision samples. *)
  cut : int * int;  (** Its range in the cut samples. *)
}

let measure kind ~seed ~seconds ~dir =
  let inps = Array.init instances (fun k -> S.setup kind ~seed:(instance_seed seed k)) in
  let cuts = cuts_of kind dir in
  let t = S.timing () in
  let pins = Array.init instances (fun _ -> pinned ()) in
  (* Deterministic per instance, from its first pass. *)
  let unserved = Array.make instances 0. and per_cut_bytes = Array.make instances 0. in
  let invalid = ref 0 in
  (* Durability probes (flat-serve and overload-burst). *)
  let tp = S.timing () and probe_pins = Array.init instances (fun _ -> pinned ()) in
  let probes = Array.map probe_prefix inps in
  (* Where the cuts that give the checkpoint metrics are recorded. *)
  let tc = if kind = S.Chaos_checkpoint then t else tp in
  let passes = ref [] and boundaries = ref [ calib () ] in
  (* Every instance at least once; then no pass that would end past the
     deadline, judging by the last one. *)
  let deadline = S.now_ns () + int_of_float (seconds *. 1e9) in
  let last = ref 0 in
  while List.length !passes < instances || S.now_ns () + !last <= deadline do
    let started = S.now_ns () in
    let k = List.length !passes mod instances in
    let inp = inps.(k) in
    let decide0 = t.decide.n and cut0 = tc.cut.n and bytes0 = tc.bytes in
    let setups =
      List.init setup_reps_per_pass (fun _ ->
          (S.setup kind ~seed:(instance_seed seed k)).setup_ns)
    in
    let p = S.serve ~timing:t ~cuts inp in
    let first = Option.is_none pins.(k).first in
    let ok = check pins.(k) p in
    if kind <> S.Chaos_checkpoint then begin
      let prefix, every = probes.(k) in
      ignore
        (check probe_pins.(k)
           (S.serve ~timing:tp ~requests:prefix ~every ~cuts:(S.Durable dir) inp))
    end;
    if first then begin
      let _, _, bad = S.verify inp p in
      invalid := !invalid + bad;
      let r = p.report in
      unserved.(k) <- ratio_i (r.arrived - r.served) r.arrived;
      per_cut_bytes.(k) <- bytes_per_cut tc ~cuts0:cut0 ~bytes0
    end;
    boundaries := calib () :: !boundaries;
    passes :=
      { instance = k; ok; wall = ns_s p.wall_ns; setups;
        decide = (decide0, t.decide.n); cut = (cut0, tc.cut.n) }
      :: !passes;
    last := S.now_ns () - started
  done;
  let passes = Array.of_list (List.rev !passes) in
  let boundaries = Array.of_list (List.rev !boundaries) in
  let kernel_ns =
    median_f (List.map float_of_int (List.concat (Array.to_list boundaries)))
  in
  let f = float_of_int Calib.reference_ns /. kernel_ns in
  (* Per-pass values, scaled; medians over passes are reported.  Per-pass
     quantiles: a pass hit by a burst of interference (or of disk
     latency, for cuts) moves the median over passes less than it moves
     a quantile pooled over all passes. *)
  let walls = Array.make instances [] and raw_walls = Array.make instances [] in
  let setup_s = ref [] and p50s = ref [] and p99s = ref [] and cut_ms = ref [] in
  Array.iter
    (fun r ->
      if r.ok then begin
        let (d0, d1), (c0, c1) = (r.decide, r.cut) in
        scale t.decide ~from:d0 ~upto:d1 f;
        scale tc.cut ~from:c0 ~upto:c1 f;
        let d = S.sorted ~from:d0 ~upto:d1 t.decide in
        p50s := S.quantile d 0.5 :: !p50s;
        p99s := S.quantile d 0.99 :: !p99s;
        cut_ms := (S.quantile (S.sorted ~from:c0 ~upto:c1 tc.cut) 0.5 *. 1e-6) :: !cut_ms;
        setup_s := List.map (fun ns -> ns_s ns *. f) r.setups @ !setup_s;
        walls.(r.instance) <- (r.wall *. f) :: walls.(r.instance);
        raw_walls.(r.instance) <- r.wall :: raw_walls.(r.instance)
      end)
    passes;
  let sum f = Array.fold_left (fun acc p -> acc + f p) 0 in
  let failed = sum (fun p -> p.bad) pins + sum (fun p -> p.bad) probe_pins in
  let attempted = sum (fun p -> p.n) pins + sum (fun p -> p.n) probe_pins in
  (* One pass of each instance: its served requests over the median wall
     of its passes, so every instance weighs the same however many
     passes it got. *)
  let served_per_s walls =
    float_of_int (sum (fun p -> (Option.get p.first).S.report.served) pins)
    /. Array.fold_left (fun acc w -> acc +. median_f w) 0. walls
  in
  Printf.printf
    "info: %s seed %d: %d instances, %d timed passes, %d route calls, %d \
     checkpoint cuts timed; unscaled %.1f served/s, calibration kernel \
     %.2f ms (reference %.2f ms)\n"
    (S.name kind) seed instances (Array.length passes) t.decide.n tc.cut.n
    (served_per_s raw_walls) (kernel_ns *. 1e-6)
    (float_of_int Calib.reference_ns *. 1e-6);
  emit ~correct:(failed = 0 && !invalid = 0) ~attempted ~failed
    ~digest:(Option.get pins.(0).first).digest
    [
      ("served_per_s", served_per_s walls);
      ("decision_p50_us", median_f !p50s *. 1e-3);
      ("decision_p99_us", lower_quartile !p99s *. 1e-3);
      ("setup_s", median_f !setup_s);
      ("unserved_ratio", mean unserved);
      ("checkpoint_ms_per_cut", median_f !cut_ms);
      ("checkpoint_kb_per_cut", mean per_cut_bytes /. 1024.);
    ]

let heap kind ~seed ~dir =
  let inp = S.setup kind ~seed:(instance_seed seed 0) in
  let p = S.serve ~cuts:(cuts_of kind dir) inp in
  let top = (Gc.quick_stat ()).Gc.top_heap_words in
  emit ~correct:(S.consistent p) ~attempted:1 ~failed:0 ~digest:p.digest
    [ ("peak_heap_mb", float_of_int (top * (Sys.word_size / 8)) /. 1048576.) ]

let counter snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Counter_v n) -> float_of_int n
  | _ -> 0.

let trace kind ~seed ~seconds ~dir =
  let inp, all = setups kind ~seed:(instance_seed seed 0) in
  let cuts = cuts_of kind dir in
  let started = S.now_ns () in
  (* Observer-effect pin: unwrapped, untraced, no checkpoints. *)
  let bare = S.serve ~cuts:S.No_cuts inp in
  let passes = ref [ bare ] in
  let keep p = passes := p :: !passes; p in
  (* Untraced, wrapped: busy shares and allocation. *)
  let t = S.timing () in
  let gc0 = Gc.quick_stat () in
  let plain = keep (S.serve ~timing:t ~cuts inp) in
  let gc1 = Gc.quick_stat () in
  (* Traced: the program's own counters. *)
  let traced_pass () =
    Metrics.reset ();
    Metrics.set_enabled true;
    let p = S.serve ~timing:(S.timing ()) ~cuts inp in
    Metrics.set_enabled false;
    keep p
  in
  let traced = traced_pass () in
  let snap = Metrics.snapshot () in
  let overheads = ref [ ratio_i traced.wall_ns plain.wall_ns ] in
  (* Snapshot build and encode, chaos-checkpoint only: the build cost
     per cut is a pass with a no-op sink minus a pass without
     checkpoints, median over the pairs run. *)
  let builds = ref [] and enc = S.samples 4096 in
  let build_pair () =
    if kind = S.Chaos_checkpoint then begin
      let none = keep (S.serve ~cuts:S.No_cuts inp) in
      let noop = keep (S.serve ~cuts:S.Noop inp) in
      builds := ratio (ns_ms (noop.wall_ns - none.wall_ns)) (float_of_int t.cut.n) :: !builds
    end
  in
  build_pair ();
  if kind = S.Chaos_checkpoint then ignore (keep (S.serve ~cuts:(S.Encode enc) inp));
  (* Replays of Algorithm 1 bump the program's counters, so they run
     after the counters were read. *)
  let capture = { S.every = 7; seen = 0; kept = [] } in
  ignore (keep (S.serve ~capture ~cuts inp));
  let sssp = S.replay_sssp inp capture.kept in
  let trees, verify_ns, bad = S.verify inp plain in
  (* More untraced/traced pairs while time remains. *)
  let deadline = started + int_of_float (seconds *. 1e9) in
  while S.now_ns () < deadline do
    let a = keep (S.serve ~timing:(S.timing ()) ~cuts inp) in
    let b = traced_pass () in
    overheads := ratio_i b.wall_ns a.wall_ns :: !overheads;
    build_pair ()
  done;
  let failed = List.length (List.filter (fun p -> not (S.same p bare)) !passes) in
  let r = plain.report in
  let wall = float_of_int plain.wall_ns in
  let calls = t.decide.n in
  let events =
    r.arrived + r.retries + r.served + r.faults_injected + r.faults_repaired
  in
  let self_ns = plain.wall_ns - t.decide.sum - t.cut.sum - t.append.sum in
  let c = counter snap in
  let cuts_n = t.cut.n in
  emit
    ~correct:(failed = 0 && bad = 0 && S.consistent bare)
    ~attempted:(List.length !passes) ~failed ~digest:bare.digest
    [
      ("setup.topology_s", median_ns (fun (i : S.inputs) -> i.topology_ns) all);
      ("setup.workload_s", median_ns (fun (i : S.inputs) -> i.workload_ns) all);
      ("policy.calls", float_of_int calls);
      ("policy.ok_ratio", ratio_i t.ok calls);
      ("policy.exhausted", float_of_int t.exhausted);
      ("policy.calls_per_served", ratio_i calls r.served);
      ("policy.busy_share", ratio (float_of_int t.decide.sum) wall);
      ("paths.dijkstra_runs", c "graph.dijkstra.runs");
      ("paths.heap_pops", c "graph.dijkstra.heap_pops");
      ("paths.relaxations", c "graph.dijkstra.edge_relaxations");
      ("routing.enumerations", c "core.routing.enumerations");
      ("routing.sssp_us_p50", q_us sssp 0.5);
      ("routing.channels_built", c "core.routing.channels_built");
      ("channel.used_ratio",
        ratio (float_of_int (S.channels_served plain)) (c "core.routing.channels_built"));
      ("alg_prim.grow_rounds", c "core.alg4.grow_rounds");
      ("alg_conflict_free.reconnect_rounds", c "core.alg3.reconnect_rounds");
      ("alg_conflict_free.seed_rejected", c "core.alg3.seed_rejected");
      ("verify.us_per_tree", ratio (ns_us verify_ns) (float_of_int trees));
      ("engine.self_share", ratio (float_of_int self_ns) wall);
      ("engine.events", float_of_int events);
      ("engine.self_us_per_event", ratio (ns_us self_ns) (float_of_int events));
      ("engine.retries", float_of_int r.retries);
      ("engine.peak_queue", float_of_int r.peak_queue_depth);
      ("admission.shed_rate_limited", c "online.overload.shed_rate_limited");
      ("admission.shed_queue_pressure", c "online.overload.shed_queue_pressure");
      ("admission.inflight_blocked", c "online.overload.inflight_blocked");
      ("budget.exhausted", c "online.overload.budget_exhausted");
      ("breaker.opens", c "online.overload.breaker_opens");
      ("policy.degraded", float_of_int r.degraded);
      ("faults.injected", float_of_int r.faults_injected);
      ("faults.interrupted", float_of_int r.leases_interrupted);
      ("faults.recovered", float_of_int r.leases_recovered);
      ("faults.aborted", float_of_int r.leases_aborted);
      ("snapshot.cuts", float_of_int cuts_n);
      ("snapshot.build_ms_per_cut", if !builds = [] then 0. else median_f !builds);
      ("snapshot.encode_ms_per_cut", q_us enc 0.5 *. 1e-3);
      ("checkpoint.save_ms_per_cut", q_us t.save 0.5 *. 1e-3);
      ("checkpoint.busy_share", ratio (float_of_int t.save.sum) wall);
      ("journal.records", float_of_int t.append.n);
      ("journal.append_us_p50", q_us t.append 0.5);
      ("journal.busy_share", ratio (float_of_int t.append.sum) wall);
      ("gc.minor_words_per_call",
        ratio (gc1.Gc.minor_words -. gc0.Gc.minor_words) (float_of_int calls));
      ("gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("telemetry.overhead_ratio", median_f !overheads);
    ]

let () =
  let usage () =
    prerr_endline
      "usage: main.exe (measure|trace) WORKLOAD SEED SECONDS DIR | heap \
       WORKLOAD SEED DIR";
    exit 2
  in
  let kind w = match S.of_name w with Some k -> k | None -> usage () in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let secs s =
    match float_of_string_opt s with Some f when f > 0. -> f | _ -> usage ()
  in
  match Array.to_list Sys.argv with
  | [ _; "measure"; w; seed; seconds; dir ] ->
      measure (kind w) ~seed:(int seed) ~seconds:(secs seconds) ~dir
  | [ _; "trace"; w; seed; seconds; dir ] ->
      trace (kind w) ~seed:(int seed) ~seconds:(secs seconds) ~dir
  | [ _; "heap"; w; seed; dir ] -> heap (kind w) ~seed:(int seed) ~dir
  | _ -> usage ()
