(* Workloads, set-up and instrumented serving passes of the serving
   benchmark.  Every measurement is taken from outside the program: the
   policy record's [route] field is wrapped to time each decision, the
   checkpoint sink and the transition hook are the benchmark's own, the
   telemetry counters are read back after a traced pass, and the layer
   entry points (best_channels_from, Verify.check, snapshot_to_sexp) are
   called directly. *)

module Engine = Qnet_online.Engine
module Policy = Qnet_online.Policy
module Workload = Qnet_online.Workload
module Checkpoint = Qnet_resilience.Checkpoint
module Journal = Qnet_resilience.Journal
module Graph = Qnet_graph.Graph
module Prng = Qnet_util.Prng
open Qnet_core

(* Nanoseconds from CLOCK_MONOTONIC; [noalloc], so timing a call adds
   nothing to the minor-heap numbers. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

type kind = Flat_serve | Overload_burst | Chaos_checkpoint

let kinds =
  [
    ("flat-serve", Flat_serve);
    ("overload-burst", Overload_burst);
    ("chaos-checkpoint", Chaos_checkpoint);
  ]

let name kind = fst (List.find (fun (_, k) -> k = kind) kinds)
let of_name s = List.assoc_opt s kinds

(* The ROADMAP baseline network, generated from one fixed seed: an
   operator serves changing traffic over one network, so [--seed]
   drives the traffic and the fault schedule, not the topology.  A
   different network per seed would make the served share and the
   decision cost swing with the topology far more than with the code. *)
let network_seed = 1
let network_spec = Qnet_topology.Spec.create ~n_users:40 ~n_switches:200 ()
let params = Params.default

let default_requests = function
  | Flat_serve -> 4000
  | Overload_burst -> 1000
  | Chaos_checkpoint -> 1000

(* Flat-serve and chaos-checkpoint users are impatient (deadline slack
   under 1 time unit, about two backoffs): a failed first try mostly
   expires instead of retrying, so the router's work stays first tries
   while enough requests go unserved for the unserved share to be
   steady from one traffic seed to the next. *)
let traffic kind ~requests =
  match kind with
  | Flat_serve ->
      Workload.spec ~requests ~arrivals:(Workload.Poisson 3.)
        ~patience:(0., 1.) ()
  | Overload_burst ->
      Workload.spec ~requests
        ~arrivals:(Workload.Pareto { alpha = 1.5; lo = 0.02; hi = 2. })
        ()
  | Chaos_checkpoint ->
      Workload.spec ~requests ~arrivals:(Workload.Poisson 4.)
        ~patience:(0., 1.) ()

(* Simulated seconds between checkpoint cuts.  Per-cut cost grows with
   the outcomes accrued so far, so cadence and request count stay
   fixed. *)
let checkpoint_every = 2.5

let fault_model kind ~seed =
  match kind with
  | Chaos_checkpoint ->
      Some (Qnet_faults.Model.make ~mtbf:400. ~mttr:10. ~seed:(seed + 40_961) ())
  | Flat_serve | Overload_burst -> None

(* A fresh engine configuration per pass: the tiered policy's breakers
   and stats are mutable. *)
let config kind =
  match kind with
  | Flat_serve -> Engine.config Policy.prim
  | Chaos_checkpoint -> Engine.config ~recovery:Engine.Repair Policy.prim
  | Overload_burst ->
      let alg3 = Option.get (Policy.of_name "alg3") in
      let policy, stats = Policy.tiered ~fuel:1000 [ alg3; Policy.prim ] in
      (* The rate limit sheds only inside bursts (about 5% of
         arrivals); the queue limit does most of the shedding, after
         the router has been tried. *)
      let overload =
        Qnet_overload.Admission.make ~max_queue:8 ~max_inflight:50 ~rate:20.
          ~burst:10. ()
      in
      Engine.config ~overload ~tier_stats:stats policy

type inputs = {
  kind : kind;
  seed : int;
  graph : Graph.t;
  requests : Workload.request list;
  faults : Qnet_faults.Model.t option;
  topology_ns : int;
  workload_ns : int;
  setup_ns : int;  (** Topology + workload + policy and admission state. *)
}

let setup ?requests kind ~seed =
  let requests = Option.value requests ~default:(default_requests kind) in
  let t0 = now_ns () in
  let graph =
    Qnet_topology.Waxman.generate (Prng.create network_seed) network_spec
  in
  let t1 = now_ns () in
  let reqs = Workload.generate (Prng.create seed) graph (traffic kind ~requests) in
  let t2 = now_ns () in
  let faults = fault_model kind ~seed in
  ignore (Sys.opaque_identity (config kind));
  let t3 = now_ns () in
  {
    kind;
    seed;
    graph;
    requests = reqs;
    faults;
    topology_ns = t1 - t0;
    workload_ns = t2 - t1;
    setup_ns = t3 - t0;
  }

(* ------------------------------------------------------------------ *)
(* Outside timings                                                     *)

(* Preallocated sample buffers: recording a sample allocates nothing. *)
type samples = { mutable n : int; mutable sum : int; buf : int array }

let samples cap = { n = 0; sum = 0; buf = Array.make cap 0 }

let record s dt =
  if s.n < Array.length s.buf then s.buf.(s.n) <- dt;
  s.n <- s.n + 1;
  s.sum <- s.sum + dt

(* Samples [from, upto) (default: all recorded), ascending. *)
let sorted ?(from = 0) ?upto s =
  let upto = min (Option.value upto ~default:s.n) (Array.length s.buf) in
  let a = Array.sub s.buf from (max 0 (upto - from)) in
  Array.sort compare a;
  a

(* Nearest-rank quantile of an ascending array, [nan] when empty. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    float_of_int
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

type timing = {
  decide : samples;  (** Wall ns of each [route] call. *)
  mutable ok : int;  (** Calls that returned a tree. *)
  mutable exhausted : int;  (** Calls that raised [Budget.Exhausted]. *)
  cut : samples;  (** Sink wall ns per cut: save + journal restart. *)
  save : samples;  (** [Checkpoint.save] ns per cut. *)
  append : samples;  (** [Journal.append] ns per record. *)
  mutable bytes : int;  (** Checkpoint + journal bytes written. *)
}

let timing () =
  {
    decide = samples (1 lsl 20);
    ok = 0;
    exhausted = 0;
    cut = samples 4096;
    save = samples 4096;
    append = samples (1 lsl 18);
    bytes = 0;
  }

(* A decision's inputs, frozen for an out-of-run replay of Algorithm 1:
   the residual capacity and the element exclusion as they stood when
   the policy was called. *)
type decision = {
  d_capacity : Capacity.t;
  d_exclude : Routing.exclusion;
  d_src : int;
}

let freeze g (ex : Routing.exclusion) =
  let v = Array.init (Graph.vertex_count g) ex.Routing.vertex_ok in
  let e = Array.init (Graph.edge_count g) ex.Routing.edge_ok in
  { Routing.vertex_ok = Array.get v; edge_ok = Array.get e }

type capture = { every : int; mutable seen : int; mutable kept : decision list }

let wrap ?timing ?capture (p : Policy.t) =
  match (timing, capture) with
  | None, None -> p
  | _ ->
      let route ~exclude ~budget g prm ~capacity ~users =
        (match capture with
        | Some c ->
            if c.seen mod c.every = 0 then
              c.kept <-
                {
                  d_capacity = Capacity.copy capacity;
                  d_exclude = freeze g exclude;
                  d_src = List.hd users;
                }
                :: c.kept;
            c.seen <- c.seen + 1
        | None -> ());
        match timing with
        | None -> p.Policy.route ~exclude ~budget g prm ~capacity ~users
        | Some t -> (
            let t0 = now_ns () in
            match p.Policy.route ~exclude ~budget g prm ~capacity ~users with
            | Some _ as r ->
                record t.decide (now_ns () - t0);
                t.ok <- t.ok + 1;
                r
            | None ->
                record t.decide (now_ns () - t0);
                None
            | exception (Qnet_overload.Budget.Exhausted _ as e) ->
                record t.decide (now_ns () - t0);
                t.exhausted <- t.exhausted + 1;
                raise e)
      in
      { p with Policy.route }

(* ------------------------------------------------------------------ *)
(* Checkpoint sinks                                                    *)

type cuts =
  | No_cuts
  | Noop  (** Cut snapshots and drop them: the engine's build cost. *)
  | Encode of samples  (** Only [snapshot_to_sexp] + rendering, timed. *)
  | Durable of string
      (** [Checkpoint.save] into the directory, plus a [Journal]
          restarted at each cut's digest and fed every transition. *)

let file_size path = (Unix.stat path).Unix.st_size

let ok_exn = function Ok v -> v | Error m -> failwith m

type durable = {
  ckpt : string;
  jpath : string;
  fingerprint : string;
  mutable journal : Journal.writer;
}

let durable_open dir ~fingerprint =
  let ckpt = Filename.concat dir "engine.ckpt" in
  let jpath = Filename.concat dir "engine.journal" in
  let journal =
    ok_exn (Journal.create ~path:jpath ~config:fingerprint ~head:"none" ~index:0)
  in
  { ckpt; jpath; fingerprint; journal }

(* The bytes the journal holds once closed. *)
let journal_close d =
  ignore (Journal.close d.journal);
  file_size d.jpath

let durable_sink d t _at snap =
  let t0 = now_ns () in
  let digest = ok_exn (Checkpoint.save ~path:d.ckpt ~config:d.fingerprint snap) in
  let t1 = now_ns () in
  let jbytes = journal_close d in
  let ckbytes = file_size d.ckpt in
  d.journal <-
    ok_exn (Journal.create ~path:d.jpath ~config:d.fingerprint ~head:digest ~index:0);
  let t2 = now_ns () in
  Option.iter
    (fun t ->
      record t.save (t1 - t0);
      record t.cut (t2 - t0);
      t.bytes <- t.bytes + jbytes + ckbytes)
    t

let durable_hook d t tr =
  match t with
  | None -> Journal.append d.journal tr
  | Some t ->
      let t0 = now_ns () in
      Journal.append d.journal tr;
      record t.append (now_ns () - t0)

(* ------------------------------------------------------------------ *)
(* One serving pass                                                    *)

type pass = {
  report : Engine.report;
  outcomes : Engine.outcome list;
  wall_ns : int;  (** Wall time of [Engine.run] alone. *)
  digest : string;  (** MD5 of the rendered report table. *)
  counts : int array;
      (** Outcomes per resolution: served, rejected, shed, expired,
          interrupted. *)
}

let counts outcomes =
  let c = Array.make 5 0 in
  List.iter
    (fun (o : Engine.outcome) ->
      let i =
        match o.resolution with
        | Engine.Served _ -> 0
        | Rejected _ -> 1
        | Shed _ -> 2
        | Expired _ -> 3
        | Interrupted _ -> 4
      in
      c.(i) <- c.(i) + 1)
    outcomes;
  c

let report_digest report =
  Digest.to_hex
    (Digest.string (Qnet_util.Table.to_string (Engine.report_table report)))

(* The pin a pass is checked against: equal iff same report and same
   per-resolution outcome counts. *)
let same a b = a.digest = b.digest && a.counts = b.counts

let serve ?timing ?capture ?(requests : Workload.request list option)
    ?(every = checkpoint_every) ~cuts (inp : inputs) =
  let cfg = config inp.kind in
  let cfg = { cfg with Engine.policy = wrap ?timing ?capture cfg.Engine.policy } in
  let requests = Option.value requests ~default:inp.requests in
  let fingerprint =
    Printf.sprintf "perfbench %s seed=%d requests=%d" (name inp.kind) inp.seed
      (List.length requests)
  in
  let durable, checkpoint, on_transition =
    match cuts with
    | No_cuts -> (None, None, None)
    | Noop -> (None, Some (every, fun _ _ -> ()), None)
    | Encode s ->
        let sink _ snap =
          let t0 = now_ns () in
          ignore
            (Sys.opaque_identity
               (Qnet_util.Sexp.to_string (Engine.snapshot_to_sexp snap)));
          record s (now_ns () - t0)
        in
        (None, Some (every, sink), None)
    | Durable dir ->
        let d = durable_open dir ~fingerprint in
        ( Some d,
          Some (every, durable_sink d timing),
          Some (durable_hook d timing) )
  in
  let t0 = now_ns () in
  let report, outcomes =
    Engine.run ~config:cfg ?faults:inp.faults ?checkpoint ?on_transition
      inp.graph params ~requests
  in
  let wall_ns = now_ns () - t0 in
  Option.iter
    (fun d ->
      let tail = journal_close d in
      Option.iter (fun t -> t.bytes <- t.bytes + tail) timing)
    durable;
  { report; outcomes; wall_ns; digest = report_digest report;
    counts = counts outcomes }

(* Every served tree re-checked by the independent validator: the
   number of trees, the ns spent, and the number of invalid trees. *)
let verify (inp : inputs) pass =
  List.fold_left
    (fun (trees, ns, bad) (o : Engine.outcome) ->
      match o.resolution with
      | Engine.Served { tree; _ } ->
          let t0 = now_ns () in
          let v = Verify.check inp.graph params ~users:o.request.users tree in
          (trees + 1, ns + (now_ns () - t0), if v = [] then bad else bad + 1)
      | _ -> (trees, ns, bad))
    (0, 0, 0) pass.outcomes

(* Report invariants that hold for every correct run. *)
let consistent pass =
  let r = pass.report and c = pass.counts in
  Array.fold_left ( + ) 0 c = r.Engine.arrived
  && c.(0) = r.served
  && c.(1) = r.rejected
  && c.(2) = r.shed
  && c.(3) = r.expired
  && r.arrived > 0

let channels_served pass =
  List.fold_left
    (fun acc (o : Engine.outcome) ->
      match o.resolution with
      | Engine.Served { tree; _ } -> acc + Ent_tree.channel_count tree
      | _ -> acc)
    0 pass.outcomes

(* Algorithm 1 replayed on captured decision inputs: ns per
   [best_channels_from] call, one call per captured decision. *)
let replay_sssp (inp : inputs) decisions =
  let s = samples (List.length decisions) in
  List.iter
    (fun d ->
      let t0 = now_ns () in
      ignore
        (Sys.opaque_identity
           (Routing.best_channels_from ~exclude:d.d_exclude inp.graph params
              ~capacity:d.d_capacity ~src:d.d_src));
      record s (now_ns () - t0))
    decisions;
  s
