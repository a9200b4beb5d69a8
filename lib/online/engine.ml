module Graph = Qnet_graph.Graph
module Lease = Qnet_sim.Scheduler.Lease
module Tm = Qnet_telemetry.Metrics
module Fmodel = Qnet_faults.Model
module Fsched = Qnet_faults.Schedule
module Fhealth = Qnet_faults.Health
module Admission_ctl = Qnet_overload.Admission
module Limiter = Qnet_overload.Limiter
module Budget = Qnet_overload.Budget
module Breaker = Qnet_overload.Breaker
open Qnet_core

let c_arrivals = Tm.counter "online.engine.arrivals"
let c_served = Tm.counter "online.engine.served"
let c_rejected = Tm.counter "online.engine.rejected"
let c_expired = Tm.counter "online.engine.expired"
let c_retries = Tm.counter "online.engine.retries"
let g_peak_qubits = Tm.gauge "online.engine.peak_qubits_in_use"
let g_peak_queue = Tm.gauge "online.engine.peak_queue_depth"
let g_utilization = Tm.gauge "online.engine.mean_utilization"
let h_wait = Tm.histogram "online.engine.wait_time"
let h_rate = Tm.histogram "online.engine.served_rate"
let c_faults_injected = Tm.counter "online.faults.injected"
let c_faults_repaired = Tm.counter "online.faults.repaired"
let c_leases_interrupted = Tm.counter "online.faults.interrupted"
let c_leases_recovered = Tm.counter "online.faults.recovered"
let c_leases_aborted = Tm.counter "online.faults.aborted"
let h_recovery = Tm.histogram "online.faults.recovery_seconds"
let c_shed = Tm.counter "online.overload.shed"
let c_shed_rate = Tm.counter "online.overload.shed_rate_limited"
let c_shed_queue = Tm.counter "online.overload.shed_queue_pressure"
let c_inflight_blocked = Tm.counter "online.overload.inflight_blocked"
let c_budget_exhausted = Tm.counter "online.overload.budget_exhausted"
let c_degraded = Tm.counter "online.overload.degraded"
let c_gate_rejected = Tm.counter "online.flow.gate_rejected"
let g_queue_limit = Tm.gauge "online.overload.max_queue"
let c_reconfig_applied = Tm.counter "online.reconfig.applied"
let c_reconfig_recovered = Tm.counter "online.reconfig.recovered"

type admission = Reject | Queue of int
type recovery = Abort | Repair | Reroute

let recovery_of_string = function
  | "abort" -> Ok Abort
  | "repair" -> Ok Repair
  | "reroute" -> Ok Reroute
  | s ->
      Error
        (Printf.sprintf "unknown recovery policy %S (expected abort|repair|reroute)" s)

let recovery_to_string = function
  | Abort -> "abort"
  | Repair -> "repair"
  | Reroute -> "reroute"

type config = {
  policy : Policy.t;
  admission : admission;
  retry_base : float;
  retry_max : float;
  recovery : recovery;
  overload : Admission_ctl.t;
  budget : int option;
  tier_stats : Policy.tier_stats option;
}

let config ?(admission = Queue 32) ?(retry_base = 0.5) ?(retry_max = 8.)
    ?(recovery = Repair) ?(overload = Admission_ctl.none) ?budget ?tier_stats
    policy =
  (match admission with
  | Reject -> ()
  | Queue n -> if n < 1 then invalid_arg "Engine.config: queue bound < 1");
  if retry_base <= 0. || not (Float.is_finite retry_base) then
    invalid_arg "Engine.config: retry_base must be positive";
  if not (retry_max >= retry_base) then
    invalid_arg "Engine.config: retry_max < retry_base";
  (match budget with
  | Some f when f <= 0 -> invalid_arg "Engine.config: budget must be positive"
  | _ -> ());
  { policy; admission; retry_base; retry_max; recovery; overload; budget;
    tier_stats }

type shed_reason = Rate_limit | Queue_pressure

type resolution =
  | Served of {
      start : float;
      finish : float;
      tree : Ent_tree.t;
      rate : float;
      attempts : int;
      recoveries : int;
      tier : int;
    }
  | Rejected of { at : float; queue_full : bool }
  | Shed of { at : float; reason : shed_reason }
  | Expired of { at : float; attempts : int }
  | Interrupted of {
      start : float;
      at : float;
      attempts : int;
      recoveries : int;
    }

type outcome = { request : Workload.request; resolution : resolution }

type incident = {
  at : float;
  request_id : int;
  element : Fsched.element;
  before : Ent_tree.t;
  after : Ent_tree.t option;
}

type report = {
  arrived : int;
  served : int;
  rejected : int;
  expired : int;
  acceptance_ratio : float;
  mean_wait : float;
  p95_wait : float;
  mean_rate : float;
  throughput : float;
  makespan : float;
  peak_qubits_in_use : int;
  peak_queue_depth : int;
  retries : int;
  mean_utilization : float;
  faults_injected : int;
  faults_repaired : int;
  leases_interrupted : int;
  leases_recovered : int;
  leases_aborted : int;
  mean_time_to_repair : float;
  mean_lost_service : float;
  shed : int;
  gate_rejected : int;
  degraded : int;
  tier_served : (string * int) list;
  budget_exhaustions : int;
  breaker_opens : int;
  p99_wait : float;
  reconfig_applied : int;
  reconfig_recovered : int;
}

type event =
  | Arrival of Workload.request
  | Retry of int
  | Expiry of int
  | Fault of Fsched.event
  | Reconf of Reconfig.event

type req_state = {
  req : Workload.request;
  mutable attempts : int;
  mutable backoff : float;
  mutable waiting : bool;
  mutable resolved : bool;
}

(* A lease in service, with everything a mid-lease fault needs to
   repair or settle it. *)
type active = {
  lid : int;
  st : req_state;
  mutable lease : Lease.t;
  mutable tree : Ent_tree.t;
  started : float;
  finish : float;
  mutable recoveries : int;
  mutable tier : int;
}

(* ------------------------------------------------------------------ *)
(* Checkpoint snapshots.

   A snapshot is a pure-data image of the complete engine state at an
   event-loop boundary: every pending event (with its heap seq, so the
   FIFO tiebreaker survives the round-trip), per-request progress, the
   active leases as channel vertex-paths (trees are rebuilt against the
   restoring run's graph, which re-validates them), settled outcomes,
   capacity quota/residual deltas, and the mutable state of every
   collaborating subsystem (limiter, health, tiered-policy breakers,
   telemetry registry).  Requests themselves are referenced by id — a
   restore replays the original workload, so the ids resolve against
   the [~requests] the caller passes back in. *)

type s_event =
  | SE_arrival of int
  | SE_retry of int
  | SE_expiry of int
  | SE_fault of Fsched.event
  | SE_reconf of Reconfig.event

type s_resolution =
  | SR_served of {
      r_start : float;
      r_finish : float;
      r_paths : int list list;
      r_rate : float;
      r_attempts : int;
      r_recoveries : int;
      r_tier : int;
    }
  | SR_rejected of { r_at : float; r_queue_full : bool }
  | SR_shed of { r_at : float; r_reason : shed_reason }
  | SR_expired of { r_at : float; r_attempts : int }
  | SR_interrupted of {
      r_start : float;
      r_at : float;
      r_attempts : int;
      r_recoveries : int;
    }

type s_state = {
  ss_id : int;
  ss_attempts : int;
  ss_backoff : float;
  ss_waiting : bool;
  ss_resolved : bool;
}

type s_active = {
  sa_lid : int;
  sa_id : int;
  sa_paths : int list list;
  sa_started : float;
  sa_finish : float;
  sa_recoveries : int;
  sa_tier : int;
}

type s_tier = {
  st_serves : int array;
  st_exhaustions : int array;
  st_verify_rejects : int array;
  st_breaker_skips : int array;
  st_breakers : (Breaker.state * int * int * int) array;
  st_last : int;
}

type snapshot = {
  s_at : float;
  s_next_ckpt : float;
      (* the uninterrupted run's next checkpoint instant, so a restored
         continuation emits its own checkpoints at the same instants *)
  s_events : (float * int * s_event) list;
  s_next_seq : int;
  s_states : s_state list;
  s_queue : int list;
  s_active : s_active list;
  s_outcomes : (int * s_resolution) list;  (* newest first, as accrued *)
  s_next_lease : int;
  s_quota : (int * int) list;  (* switches re-provisioned off the graph *)
  s_residual : (int * int) list;  (* switches with qubits in use *)
  s_shed_total : int;
  s_gate_rejected : int;
  s_budget_exhaustions : int;
  s_peak_qubits : int;
  s_peak_queue : int;
  s_retries : int;
  s_util_integral : float;
  s_last_time : float;
  s_makespan : float;
  s_faults_injected : int;
  s_faults_repaired : int;
  s_leases_interrupted : int;
  s_leases_recovered : int;
  s_leases_aborted : int;
  s_lost_service : float;
  s_reconfig_applied : int;
  s_reconfig_recovered : int;
  s_limiter : (float * float) option;
  s_health : Fhealth.snapshot option;
  s_tier : s_tier option;
  s_policy : Qnet_util.Sexp.t option;
      (* opaque policy-owned state (Policy.state_hooks) *)
  s_metrics : (string * Tm.dumped) list option;
}

(* Committed state transitions, in commit order — the write-ahead
   journal's vocabulary.  Every entry is emitted at the exact point the
   engine mutates durable state (lease table, health, capacity quota),
   so a restored run re-emits the same stream from its cut onward and a
   journal tail can be verified against the deterministic
   re-execution. *)
type transition =
  | T_admit of { at : float; lid : int; request : int }
  | T_release of { at : float; lid : int }
  | T_recover of { at : float; lid : int }
  | T_abort of { at : float; lid : int }
  | T_fault of { at : float; link : bool; element : int; up : bool }
  | T_reconfig of { at : float; link : bool; element : int; up : bool }
  | T_provision of { at : float; switch : int; qubits : int }

let snapshot_at s = s.s_at
let snapshot_version = "muerp-engine-snapshot/2"

(* The text view of a snapshot, for humans ([muerp inspect]); the
   durable binary format lives in [Qnet_resilience.Checkpoint]. *)

module Sexp = Qnet_util.Sexp

let sx_bool b = Sexp.atom (if b then "true" else "false")
let sx_paths paths =
  Sexp.list (List.map (fun p -> Sexp.list (List.map Sexp.int p)) paths)

let s_event_to_sexp = function
  | SE_arrival id -> Sexp.list [ Sexp.atom "arrival"; Sexp.int id ]
  | SE_retry id -> Sexp.list [ Sexp.atom "retry"; Sexp.int id ]
  | SE_expiry lid -> Sexp.list [ Sexp.atom "expiry"; Sexp.int lid ]
  | SE_fault fe ->
      let el =
        match fe.Fsched.element with
        | Fsched.Link e -> Sexp.list [ Sexp.atom "link"; Sexp.int e ]
        | Fsched.Switch v -> Sexp.list [ Sexp.atom "switch"; Sexp.int v ]
      in
      Sexp.list
        [ Sexp.atom "fault"; Sexp.float fe.Fsched.time; el;
          sx_bool fe.Fsched.up ]
  | SE_reconf re ->
      Sexp.list
        [ Sexp.atom "reconfig"; Sexp.float re.Reconfig.time;
          Reconfig.change_to_sexp re.Reconfig.change ]

let s_resolution_to_sexp = function
  | SR_served r ->
      Sexp.list
        [ Sexp.atom "served"; Sexp.float r.r_start; Sexp.float r.r_finish;
          Sexp.float r.r_rate; Sexp.int r.r_attempts; Sexp.int r.r_recoveries;
          Sexp.int r.r_tier; sx_paths r.r_paths ]
  | SR_rejected r ->
      Sexp.list
        [ Sexp.atom "rejected"; Sexp.float r.r_at; sx_bool r.r_queue_full ]
  | SR_shed r ->
      Sexp.list
        [ Sexp.atom "shed"; Sexp.float r.r_at;
          Sexp.atom
            (match r.r_reason with
            | Rate_limit -> "rate"
            | Queue_pressure -> "queue") ]
  | SR_expired r ->
      Sexp.list [ Sexp.atom "expired"; Sexp.float r.r_at; Sexp.int r.r_attempts ]
  | SR_interrupted r ->
      Sexp.list
        [ Sexp.atom "interrupted"; Sexp.float r.r_start; Sexp.float r.r_at;
          Sexp.int r.r_attempts; Sexp.int r.r_recoveries ]

let breaker_state_str = function
  | Breaker.Closed -> "closed"
  | Breaker.Open -> "open"
  | Breaker.Half_open -> "half-open"

let dumped_to_sexp (name, d) =
  match d with
  | Tm.D_counter n -> Sexp.list [ Sexp.atom name; Sexp.atom "counter"; Sexp.int n ]
  | Tm.D_gauge v -> Sexp.list [ Sexp.atom name; Sexp.atom "gauge"; Sexp.float v ]
  | Tm.D_histogram h ->
      Sexp.list
        [ Sexp.atom name; Sexp.atom "hist"; Sexp.int h.Tm.d_n;
          Sexp.float h.Tm.d_sum; Sexp.float h.Tm.d_vmin; Sexp.float h.Tm.d_vmax;
          Sexp.list (List.map Sexp.int (Array.to_list h.Tm.d_counts)) ]

let fld name elts = Sexp.list (Sexp.atom name :: elts)

let health_fields h =
  let ints l = List.map Sexp.int l in
  let floats l = List.map Sexp.float l in
  [
    fld "link-down" (ints (Array.to_list h.Fhealth.s_link_down));
    fld "switch-down" (ints (Array.to_list h.Fhealth.s_switch_down));
    fld "link-since" (floats (Array.to_list h.Fhealth.s_link_since));
    fld "switch-since" (floats (Array.to_list h.Fhealth.s_switch_since));
    fld "repairs" [ Sexp.int h.Fhealth.s_repairs ];
    fld "downtime" [ Sexp.float h.Fhealth.s_total_downtime ];
  ]

let tier_fields st =
  let ints l = List.map Sexp.int l in
  [
    fld "serves" (ints (Array.to_list st.st_serves));
    fld "exhaustions" (ints (Array.to_list st.st_exhaustions));
    fld "verify-rejects" (ints (Array.to_list st.st_verify_rejects));
    fld "breaker-skips" (ints (Array.to_list st.st_breaker_skips));
    fld "breakers"
      (List.map
         (fun (bs, cf, cd, op) ->
           Sexp.list
             [ Sexp.atom (breaker_state_str bs); Sexp.int cf; Sexp.int cd;
               Sexp.int op ])
         (Array.to_list st.st_breakers));
    fld "last" [ Sexp.int st.st_last ];
  ]

let snapshot_to_sexp s =
  let pair (a, b) = Sexp.list [ Sexp.int a; Sexp.int b ] in
  let ints l = List.map Sexp.int l in
  Sexp.list
    [
      Sexp.atom snapshot_version;
      fld "at" [ Sexp.float s.s_at ];
      fld "next-ckpt" [ Sexp.float s.s_next_ckpt ];
      fld "next-seq" [ Sexp.int s.s_next_seq ];
      fld "next-lease" [ Sexp.int s.s_next_lease ];
      fld "events"
        (List.map
           (fun (t, seq, ev) ->
             Sexp.list [ Sexp.float t; Sexp.int seq; s_event_to_sexp ev ])
           s.s_events);
      fld "states"
        (List.map
           (fun ss ->
             Sexp.list
               [ Sexp.int ss.ss_id; Sexp.int ss.ss_attempts;
                 Sexp.float ss.ss_backoff; sx_bool ss.ss_waiting;
                 sx_bool ss.ss_resolved ])
           s.s_states);
      fld "queue" (ints s.s_queue);
      fld "active"
        (List.map
           (fun sa ->
             Sexp.list
               [ Sexp.int sa.sa_lid; Sexp.int sa.sa_id;
                 Sexp.float sa.sa_started; Sexp.float sa.sa_finish;
                 Sexp.int sa.sa_recoveries; Sexp.int sa.sa_tier;
                 sx_paths sa.sa_paths ])
           s.s_active);
      fld "outcomes"
        (List.map
           (fun (id, res) ->
             Sexp.list [ Sexp.int id; s_resolution_to_sexp res ])
           s.s_outcomes);
      fld "quota" (List.map pair s.s_quota);
      fld "residual" (List.map pair s.s_residual);
      fld "shed" [ Sexp.int s.s_shed_total ];
      fld "gate-rejected" [ Sexp.int s.s_gate_rejected ];
      fld "budget-exhaustions" [ Sexp.int s.s_budget_exhaustions ];
      fld "peak-qubits" [ Sexp.int s.s_peak_qubits ];
      fld "peak-queue" [ Sexp.int s.s_peak_queue ];
      fld "retries" [ Sexp.int s.s_retries ];
      fld "util-integral" [ Sexp.float s.s_util_integral ];
      fld "last-time" [ Sexp.float s.s_last_time ];
      fld "makespan" [ Sexp.float s.s_makespan ];
      fld "faults-injected" [ Sexp.int s.s_faults_injected ];
      fld "faults-repaired" [ Sexp.int s.s_faults_repaired ];
      fld "interrupted" [ Sexp.int s.s_leases_interrupted ];
      fld "recovered" [ Sexp.int s.s_leases_recovered ];
      fld "aborted" [ Sexp.int s.s_leases_aborted ];
      fld "lost-service" [ Sexp.float s.s_lost_service ];
      fld "reconfig-applied" [ Sexp.int s.s_reconfig_applied ];
      fld "reconfig-recovered" [ Sexp.int s.s_reconfig_recovered ];
      fld "limiter"
        (match s.s_limiter with
        | None -> []
        | Some (tokens, last) -> [ Sexp.float tokens; Sexp.float last ]);
      fld "health"
        (match s.s_health with None -> [] | Some h -> health_fields h);
      fld "tier" (match s.s_tier with None -> [] | Some st -> tier_fields st);
      fld "policy" (match s.s_policy with None -> [] | Some doc -> [ doc ]);
      fld "metrics"
        (match s.s_metrics with
        | None -> []
        | Some d -> List.map dumped_to_sexp d);
    ]

(* ------------------------------------------------------------------ *)

let validate g requests =
  let ids = Hashtbl.create 16 in
  List.iter
    (fun (r : Workload.request) ->
      if Hashtbl.mem ids r.Workload.id then
        invalid_arg "Engine.run: duplicate request id";
      Hashtbl.replace ids r.Workload.id ();
      if r.Workload.arrival < 0. || not (Float.is_finite r.Workload.arrival)
      then invalid_arg "Engine.run: bad arrival time";
      if r.Workload.duration <= 0. || not (Float.is_finite r.Workload.duration)
      then invalid_arg "Engine.run: duration must be positive";
      if r.Workload.deadline < r.Workload.arrival then
        invalid_arg "Engine.run: deadline before arrival";
      if List.length r.Workload.users < 2 then
        invalid_arg "Engine.run: request needs >= 2 users";
      if
        List.length (List.sort_uniq compare r.Workload.users)
        <> List.length r.Workload.users
      then invalid_arg "Engine.run: duplicate users in request";
      List.iter
        (fun u ->
          if not (Graph.is_user g u) then
            invalid_arg "Engine.run: request member is not a user")
        r.Workload.users)
    requests

(* Vertices strictly between a channel path's endpoints — the switches
   whose qubits the channel consumes (Capacity keeps the same helper
   private). *)
let interior_of_path = function
  | [] | [ _ ] -> []
  | _ :: rest ->
      let rec drop_last = function
        | [] | [ _ ] -> []
        | x :: tl -> x :: drop_last tl
      in
      drop_last rest

let total_switch_qubits g =
  List.fold_left (fun acc s -> acc + Graph.qubits g s) 0 (Graph.switches g)

(* Nothing after [max (arrival, deadline) + duration] of any request can
   affect an outcome, so the fault schedule needs no more horizon. *)
let fault_horizon requests =
  List.fold_left
    (fun acc (r : Workload.request) ->
      Float.max acc
        (Float.max r.Workload.arrival r.Workload.deadline
        +. r.Workload.duration))
    0. requests

let validate_schedule g schedule =
  List.iter
    (fun (fe : Fsched.event) ->
      if Float.is_nan fe.time || fe.time < 0. then
        invalid_arg "Engine.run: fault event with bad timestamp";
      match fe.element with
      | Fsched.Link eid ->
          if eid < 0 || eid >= Graph.edge_count g then
            invalid_arg "Engine.run: fault event on unknown edge"
      | Fsched.Switch vid ->
          if vid < 0 || vid >= Graph.vertex_count g then
            invalid_arg "Engine.run: fault event on unknown vertex")
    schedule

let run ?config:(cfg = config Policy.prim) ?faults ?fault_schedule ?on_incident
    ?on_health ?on_transition ?checkpoint ?(reconfig = []) ?restore_from
    g params ~requests =
  validate g requests;
  Option.iter (validate_schedule g) fault_schedule;
  (match checkpoint with
  | Some (every, _) ->
      if every <= 0. || not (Float.is_finite every) then
        invalid_arg "Engine.run: checkpoint interval must be positive"
  | None -> ());
  (match Reconfig.validate g reconfig with
  | Ok () -> ()
  | Error e -> invalid_arg ("Engine.run: " ^ e));
  let capacity = Capacity.of_graph g in
  let health =
    (* Reconfiguration rides on the same availability state as faults:
       an administrative leave excludes the element from routing exactly
       as a failure would, so recovery and cache invalidation behave
       identically for both. *)
    match (faults, fault_schedule) with
    | None, None -> if reconfig = [] then None else Some (Fhealth.create g)
    | _ -> Some (Fhealth.create g)
  in
  (match (health, on_health) with
  | Some h, Some f -> f h
  | _ -> ());
  let exclude =
    match health with
    | None -> Routing.no_exclusion
    | Some h -> Fhealth.exclusion h
  in
  let events : event Event_queue.t = Event_queue.create () in
  let states : (int, req_state) Hashtbl.t = Hashtbl.create 64 in
  let active : (int, active) Hashtbl.t = Hashtbl.create 64 in
  let limiter = Admission_ctl.limiter cfg.overload in
  (match cfg.overload.Admission_ctl.max_queue with
  | Some q -> Tm.Gauge.set_max g_queue_limit (float_of_int q)
  | None -> ());
  let fresh_budget () =
    Option.map (fun fuel -> Budget.create ~fuel) cfg.budget
  in
  let shed_total = ref 0 in
  let gate_rejected = ref 0 in
  let budget_exhaustions = ref 0 in
  let next_lease = ref 0 in
  let queue = ref [] in
  (* waiting request ids, FIFO (head = oldest) *)
  let outcomes = ref [] in
  let unresolved = ref (List.length requests) in
  let in_use = ref 0 in
  let peak_qubits = ref 0 in
  let peak_queue = ref 0 in
  let retries = ref 0 in
  let util_integral = ref 0. in
  let last_time = ref 0. in
  let makespan = ref 0. in
  let faults_injected = ref 0 in
  let faults_repaired = ref 0 in
  let leases_interrupted = ref 0 in
  let leases_recovered = ref 0 in
  let leases_aborted = ref 0 in
  let lost_service = ref 0. in
  let reconfig_applied = ref 0 in
  let reconfig_recovered = ref 0 in
  let emit tr =
    match on_transition with None -> () | Some f -> f tr
  in
  let element_parts = function
    | Fsched.Link e -> (true, e)
    | Fsched.Switch v -> (false, v)
  in
  let resolve st resolution =
    st.resolved <- true;
    st.waiting <- false;
    decr unresolved;
    outcomes := { request = st.req; resolution } :: !outcomes
  in
  (* One routing attempt for [st] at time [t]; on success the lease is
     registered and its expiry scheduled — resolution waits for the
     lease to complete (it may yet be interrupted by a fault). *)
  let inflight_full () =
    match cfg.overload.Admission_ctl.max_inflight with
    | None -> false
    | Some m ->
        let full = Hashtbl.length active >= m in
        if full then Tm.Counter.incr c_inflight_blocked;
        full
  in
  (* One policy invocation under the configured fuel budget; exhaustion
     counts as a failed attempt (capacity already rolled back by the
     solver layer), never as an engine error. *)
  let route_once users =
    match
      Qnet_telemetry.Span.with_span "online.route" (fun () ->
          cfg.policy.Policy.route ~exclude ~budget:(fresh_budget ()) g params
            ~capacity ~users)
    with
    | tree -> tree
    | exception Budget.Exhausted _ ->
        incr budget_exhaustions;
        Tm.Counter.incr c_budget_exhausted;
        None
  in
  let served_tier () =
    match cfg.tier_stats with
    | None -> -1
    | Some stats -> stats.Policy.last
  in
  let try_serve t st =
    let r = st.req in
    st.attempts <- st.attempts + 1;
    if inflight_full () then false
    else
      match route_once r.Workload.users with
      | None -> false
      | Some tree ->
          let lease = Lease.acquire tree in
          let lid = !next_lease in
          incr next_lease;
          Hashtbl.replace active lid
            {
              lid;
              st;
              lease;
              tree;
              started = t;
              finish = t +. r.Workload.duration;
              recoveries = 0;
              tier = served_tier ();
            };
          emit (T_admit { at = t; lid; request = r.Workload.id });
          Event_queue.push events (t +. r.Workload.duration) (Expiry lid);
          in_use := !in_use + Lease.qubits lease;
          peak_qubits := max !peak_qubits !in_use;
          st.waiting <- false;
          Tm.Histogram.observe h_wait (t -. r.Workload.arrival);
          true
  in
  let schedule_retry t st =
    let rt = min (t +. st.backoff) st.req.Workload.deadline in
    st.backoff <- min (2. *. st.backoff) cfg.retry_max;
    Event_queue.push events rt (Retry st.req.Workload.id)
  in
  let expire t st =
    Tm.Counter.incr c_expired;
    queue := List.filter (fun id -> id <> st.req.Workload.id) !queue;
    resolve st (Expired { at = t; attempts = st.attempts })
  in
  let shed t st reason =
    incr shed_total;
    Tm.Counter.incr c_shed;
    (match reason with
    | Rate_limit -> Tm.Counter.incr c_shed_rate
    | Queue_pressure -> Tm.Counter.incr c_shed_queue);
    queue := List.filter (fun id -> id <> st.req.Workload.id) !queue;
    resolve st (Shed { at = t; reason })
  in
  let victim_of t (st : req_state) =
    {
      Admission_ctl.id = st.req.Workload.id;
      group = List.length st.req.Workload.users;
      slack = st.req.Workload.deadline -. t;
    }
  in
  (* Queue-pressure shedding: with the depth limit hit, refuse the
     cheapest-to-refuse request among the waiters and the newcomer
     (largest group, then loosest deadline, then id).  Returns [true]
     when the newcomer survived and may be enqueued. *)
  let shed_for_room t (newcomer : req_state) =
    match cfg.overload.Admission_ctl.max_queue with
    | None -> true
    | Some limit ->
        if List.length !queue < limit then true
        else begin
          let candidates =
            victim_of t newcomer
            :: List.map (fun id -> victim_of t (Hashtbl.find states id)) !queue
          in
          match Admission_ctl.pick_victim candidates with
          | None -> true
          | Some v ->
              if v.Admission_ctl.id = newcomer.req.Workload.id then begin
                shed t newcomer Queue_pressure;
                false
              end
              else begin
                shed t (Hashtbl.find states v.Admission_ctl.id) Queue_pressure;
                true
              end
        end
  in
  let on_arrival t (r : Workload.request) =
    Tm.Counter.incr c_arrivals;
    let st =
      {
        req = r;
        attempts = 0;
        backoff = cfg.retry_base;
        waiting = false;
        resolved = false;
      }
    in
    Hashtbl.replace states r.Workload.id st;
    let over_rate =
      match limiter with
      | None -> false
      | Some lim -> not (Limiter.try_take lim ~now:t)
    in
    let gate_infeasible =
      (* Provable-infeasibility gate: a group the oracle condemns can
         never be served, so reject before any routing work (and before
         it can occupy queue space other requests could use). *)
      (not over_rate)
      &&
      match cfg.overload.Admission_ctl.infeasible with
      | Some oracle -> oracle r.Workload.users
      | None -> false
    in
    if over_rate then shed t st Rate_limit
    else if gate_infeasible then begin
      incr gate_rejected;
      Tm.Counter.incr c_gate_rejected;
      Tm.Counter.incr c_rejected;
      resolve st (Rejected { at = t; queue_full = false })
    end
    else if not (try_serve t st) then
      match cfg.admission with
      | Reject ->
          Tm.Counter.incr c_rejected;
          resolve st (Rejected { at = t; queue_full = false })
      | Queue bound ->
          if r.Workload.deadline <= t then expire t st
          else if not (shed_for_room t st) then ()
          else if List.length !queue >= bound then begin
            Tm.Counter.incr c_rejected;
            resolve st (Rejected { at = t; queue_full = true })
          end
          else begin
            st.waiting <- true;
            queue := !queue @ [ r.Workload.id ];
            peak_queue := max !peak_queue (List.length !queue);
            schedule_retry t st
          end
  in
  let on_retry t id =
    let st = Hashtbl.find states id in
    if st.waiting then
      if t >= st.req.Workload.deadline then
        (* Patience ran out while queued: settle as expired without a
           futile final routing attempt (the serve window is
           [arrival, deadline) once waiting). *)
        expire t st
      else begin
        incr retries;
        Tm.Counter.incr c_retries;
        if try_serve t st then
          queue := List.filter (fun i -> i <> id) !queue
        else schedule_retry t st
      end
  in
  (* Work conservation: whenever capacity or connectivity improves
     (lease expiry, fault abort, element repair), offer it to the
     longest-waiting requests first, without waiting out their backoff
     timers. *)
  let rescan_queue t =
    queue :=
      List.filter
        (fun id ->
          let st = Hashtbl.find states id in
          if st.req.Workload.deadline <= t then begin
            (* Lapsed while waiting for its own retry event; settle it
               now so the freed capacity is not offered to a request
               that has already abandoned. *)
            resolve st
              (Expired
                 { at = st.req.Workload.deadline; attempts = st.attempts });
            Tm.Counter.incr c_expired;
            false
          end
          else begin
            incr retries;
            Tm.Counter.incr c_retries;
            not (try_serve t st)
          end)
        !queue
  in
  let on_expiry t lid =
    match Hashtbl.find_opt active lid with
    | None -> () (* aborted mid-lease; stale expiry *)
    | Some a ->
        Hashtbl.remove active lid;
        in_use := !in_use - Lease.qubits a.lease;
        Lease.release capacity a.lease;
        emit (T_release { at = t; lid });
        let rate = Ent_tree.rate_prob a.tree in
        Tm.Counter.incr c_served;
        Tm.Histogram.observe h_rate rate;
        if a.tier > 0 then Tm.Counter.incr c_degraded;
        resolve a.st
          (Served
             {
               start = a.started;
               finish = t;
               tree = a.tree;
               rate;
               attempts = a.st.attempts;
               recoveries = a.recoveries;
               tier = a.tier;
             });
        rescan_queue t
  in
  let dead_path path = not (Routing.path_ok g exclude path) in
  let tree_dead (tree : Ent_tree.t) =
    List.exists
      (fun (c : Channel.t) -> dead_path c.Channel.path)
      tree.Ent_tree.channels
  in
  (* Channel-level repair: refund only the channels [dead] condemns,
     then find a replacement channel between the same endpoints over the
     residual graph minus the failed (or administratively drained)
     elements. *)
  let repair ~dead a =
    let live, dead_cs =
      List.partition
        (fun (c : Channel.t) -> not (dead c.Channel.path))
        a.tree.Ent_tree.channels
    in
    let remainder, _dead_paths = Lease.release_where capacity a.lease ~dead in
    let rec replace acc = function
      | [] -> Some (List.rev acc)
      | (c : Channel.t) :: rest -> (
          match
            Routing.best_channel ~exclude g params ~capacity ~src:c.src
              ~dst:c.dst
          with
          | Some (repl : Channel.t) ->
              Capacity.consume_channel capacity repl.Channel.path;
              replace (repl :: acc) rest
          | None ->
              List.iter
                (fun (r : Channel.t) ->
                  Capacity.release_channel capacity r.Channel.path)
                acc;
              None)
    in
    match replace [] dead_cs with
    | None ->
        Option.iter (fun rem -> Lease.release capacity rem) remainder;
        None
    | Some repls ->
        let tree' = Ent_tree.of_channels (live @ repls) in
        Verify.check_exn ~context:"fault repair" g params
          ~users:a.st.req.Workload.users tree';
        a.tree <- tree';
        a.lease <- Lease.acquire tree';
        Some tree'
  in
  let reroute a =
    Lease.release capacity a.lease;
    match
      cfg.policy.Policy.route ~exclude ~budget:(fresh_budget ()) g params
        ~capacity ~users:a.st.req.Workload.users
    with
    | exception Budget.Exhausted _ ->
        incr budget_exhaustions;
        Tm.Counter.incr c_budget_exhausted;
        None
    | None -> None
    | Some tree' ->
        Verify.check_exn ~context:"fault reroute" g params
          ~users:a.st.req.Workload.users tree';
        a.tree <- tree';
        a.lease <- Lease.acquire tree';
        a.tier <- served_tier ();
        Some tree'
  in
  (* [dead] condemns the channels the recovery must replace (defaults to
     the health exclusion); [admin] marks an operator-driven recovery so
     it lands in the reconfig counters rather than the fault ones. *)
  let recover ?(dead = dead_path) ?(admin = false) t element a =
    incr leases_interrupted;
    Tm.Counter.incr c_leases_interrupted;
    let before = a.tree in
    let t0 = Qnet_telemetry.Clock.now_s () in
    in_use := !in_use - Lease.qubits a.lease;
    let after =
      Qnet_telemetry.Span.with_span "online.recover" (fun () ->
          match cfg.recovery with
          | Abort ->
              Lease.release capacity a.lease;
              None
          | Repair -> repair ~dead a
          | Reroute -> reroute a)
    in
    (match after with
    | Some _ ->
        emit (T_recover { at = t; lid = a.lid });
        in_use := !in_use + Lease.qubits a.lease;
        peak_qubits := max !peak_qubits !in_use;
        a.recoveries <- a.recoveries + 1;
        incr leases_recovered;
        Tm.Counter.incr c_leases_recovered;
        if admin then begin
          incr reconfig_recovered;
          Tm.Counter.incr c_reconfig_recovered
        end;
        Tm.Histogram.observe h_recovery (Qnet_telemetry.Clock.elapsed_since t0)
    | None ->
        (* Abort-and-refund: the capacity is already back in the pool;
           the request ends here, with the unserved remainder of its
           lease recorded as lost service. *)
        emit (T_abort { at = t; lid = a.lid });
        incr leases_aborted;
        Tm.Counter.incr c_leases_aborted;
        lost_service := !lost_service +. Float.max 0. (a.finish -. t);
        Hashtbl.remove active a.lid;
        resolve a.st
          (Interrupted
             {
               start = a.started;
               at = t;
               attempts = a.st.attempts;
               recoveries = a.recoveries;
             }));
    match on_incident with
    | None -> ()
    | Some f ->
        f { at = t; request_id = a.st.req.Workload.id; element; before; after }
  in
  let on_fault t (fe : Fsched.event) =
    match health with
    | None -> ()
    | Some h -> (
        match Fhealth.apply h fe with
        | Fhealth.No_change -> ()
        | Fhealth.Went_down ->
            incr faults_injected;
            Tm.Counter.incr c_faults_injected;
            (let link, element = element_parts fe.Fsched.element in
             emit (T_fault { at = t; link; element; up = false }));
            (* Active trees are all healthy between fault events, so the
               dead ones now are exactly those crossing the failed
               element.  Lease-id order keeps multi-victim recovery
               deterministic. *)
            let affected =
              Hashtbl.fold
                (fun _ a acc -> if tree_dead a.tree then a :: acc else acc)
                active []
              |> List.sort (fun (x : active) y -> compare x.lid y.lid)
            in
            List.iter (recover t fe.element) affected;
            if affected <> [] then rescan_queue t
        | Fhealth.Came_up ->
            incr faults_repaired;
            Tm.Counter.incr c_faults_repaired;
            (let link, element = element_parts fe.Fsched.element in
             emit (T_fault { at = t; link; element; up = true }));
            (* Connectivity improved: queued requests that were blocked
               by the failed element may route now. *)
            rescan_queue t)
  in
  (* Operator-driven topology changes, applied without draining traffic.
     Leaves and removals run through the same health transition as
     faults (recover affected leases, re-exclude the element); joins and
     additions re-admit it; a provision moves the switch's quota and —
     when shrunk below current usage — recovers just enough leases
     through the switch to fit the new budget, in lease-id order. *)
  let on_reconf t (re : Reconfig.event) =
    let admin_transition element up =
      match health with
      | None -> ()
      | Some h -> (
          match Fhealth.apply h { Fsched.time = t; element; up } with
          | Fhealth.No_change -> ()
          | Fhealth.Went_down ->
              incr reconfig_applied;
              Tm.Counter.incr c_reconfig_applied;
              (let link, el = element_parts element in
               emit (T_reconfig { at = t; link; element = el; up = false }));
              let affected =
                Hashtbl.fold
                  (fun _ a acc -> if tree_dead a.tree then a :: acc else acc)
                  active []
                |> List.sort (fun (x : active) y -> compare x.lid y.lid)
              in
              List.iter (recover ~admin:true t element) affected;
              if affected <> [] then rescan_queue t
          | Fhealth.Came_up ->
              incr reconfig_applied;
              Tm.Counter.incr c_reconfig_applied;
              (let link, el = element_parts element in
               emit (T_reconfig { at = t; link; element = el; up = true }));
              rescan_queue t)
    in
    match re.Reconfig.change with
    | Reconfig.Switch_leave v -> admin_transition (Fsched.Switch v) false
    | Reconfig.Switch_join v -> admin_transition (Fsched.Switch v) true
    | Reconfig.Link_remove e -> admin_transition (Fsched.Link e) false
    | Reconfig.Link_add e -> admin_transition (Fsched.Link e) true
    | Reconfig.Provision { switch = v; qubits = q } ->
        incr reconfig_applied;
        Tm.Counter.incr c_reconfig_applied;
        emit (T_provision { at = t; switch = v; qubits = q });
        Capacity.provision capacity v q;
        (if Capacity.remaining capacity v < 0 then begin
           (* Shrunk below current usage: recover leases crossing the
              switch, oldest first, until the deficit clears.  Each
              recovery either replaces the crossing channels (the
              replacement cannot re-enter [v] — its residual is
              negative, so it cannot relay) or aborts and refunds, so
              the loop provably terminates with residual >= 0 once no
              crossing lease remains. *)
           let through path = List.mem v (interior_of_path path) in
           let crossing =
             Hashtbl.fold
               (fun _ a acc ->
                 if
                   List.exists
                     (fun (c : Channel.t) -> through c.Channel.path)
                     a.tree.Ent_tree.channels
                 then a :: acc
                 else acc)
               active []
             |> List.sort (fun (x : active) y -> compare x.lid y.lid)
           in
           List.iter
             (fun a ->
               if Capacity.remaining capacity v < 0 then
                 recover ~dead:through ~admin:true t (Fsched.Switch v) a)
             crossing
         end);
        rescan_queue t
  in
  (* Rebuild the complete engine state from a snapshot.  Trees are
     reconstructed channel-by-channel against this run's graph (which
     re-validates every path), their capacity re-consumed, and the
     recorded residuals cross-checked — a snapshot that disagrees with
     the graph or flags it is restored under fails loudly here rather
     than mis-accounting silently. *)
  let restore_state (snap : snapshot) =
    let fail msg = invalid_arg ("Engine.run: restore: " ^ msg) in
    let req_by_id = Hashtbl.create (max 16 (List.length requests)) in
    List.iter
      (fun (r : Workload.request) -> Hashtbl.replace req_by_id r.Workload.id r)
      requests;
    let req_of id =
      match Hashtbl.find_opt req_by_id id with
      | Some r -> r
      | None ->
          fail
            (Printf.sprintf
               "snapshot references request %d, absent from this workload \
                (restore must replay the original seed and flags)"
               id)
    in
    let tree_of_paths paths =
      let channels =
        List.map
          (fun path ->
            match Channel.make g params path with
            | Ok c -> c
            | Error reason ->
                fail ("snapshot channel invalid on this network: " ^ reason))
          paths
      in
      Ent_tree.of_channels channels
    in
    let des_event = function
      | SE_arrival id -> Arrival (req_of id)
      | SE_retry id -> Retry id
      | SE_expiry lid -> Expiry lid
      | SE_fault fe -> Fault fe
      | SE_reconf re -> Reconf re
    in
    let des_resolution = function
      | SR_served r ->
          Served
            {
              start = r.r_start;
              finish = r.r_finish;
              tree = tree_of_paths r.r_paths;
              rate = r.r_rate;
              attempts = r.r_attempts;
              recoveries = r.r_recoveries;
              tier = r.r_tier;
            }
      | SR_rejected r -> Rejected { at = r.r_at; queue_full = r.r_queue_full }
      | SR_shed r -> Shed { at = r.r_at; reason = r.r_reason }
      | SR_expired r -> Expired { at = r.r_at; attempts = r.r_attempts }
      | SR_interrupted r ->
          Interrupted
            {
              start = r.r_start;
              at = r.r_at;
              attempts = r.r_attempts;
              recoveries = r.r_recoveries;
            }
    in
    List.iter
      (fun (v, q) ->
        if v < 0 || v >= Graph.vertex_count g || not (Graph.is_switch g v)
        then fail "quota entry names a non-switch vertex";
        if q < 0 then fail "negative quota in snapshot";
        Capacity.provision capacity v q)
      snap.s_quota;
    List.iter
      (fun ss ->
        Hashtbl.replace states ss.ss_id
          {
            req = req_of ss.ss_id;
            attempts = ss.ss_attempts;
            backoff = ss.ss_backoff;
            waiting = ss.ss_waiting;
            resolved = ss.ss_resolved;
          })
      snap.s_states;
    List.iter
      (fun id ->
        if not (Hashtbl.mem states id) then
          fail "queued request id has no recorded state")
      snap.s_queue;
    queue := snap.s_queue;
    List.iter
      (fun sa ->
        let st =
          match Hashtbl.find_opt states sa.sa_id with
          | Some st -> st
          | None -> fail "active lease names an unknown request"
        in
        let tree = tree_of_paths sa.sa_paths in
        (try
           List.iter
             (fun (c : Channel.t) ->
               Capacity.consume_channel capacity c.Channel.path)
             tree.Ent_tree.channels
         with Invalid_argument _ ->
           fail "active leases exceed switch capacity (corrupt snapshot)");
        let lease = Lease.acquire tree in
        Hashtbl.replace active sa.sa_lid
          {
            lid = sa.sa_lid;
            st;
            lease;
            tree;
            started = sa.sa_started;
            finish = sa.sa_finish;
            recoveries = sa.sa_recoveries;
            tier = sa.sa_tier;
          };
        in_use := !in_use + Lease.qubits lease)
      snap.s_active;
    List.iter
      (fun v ->
        let expect =
          match List.assoc_opt v snap.s_residual with
          | Some r -> r
          | None -> Capacity.quota capacity v
        in
        if Capacity.remaining capacity v <> expect then
          fail
            "capacity residuals disagree with the snapshot (corrupt \
             snapshot, or a different network or flags)")
      (Graph.switches g);
    outcomes :=
      List.map
        (fun (id, res) -> { request = req_of id; resolution = des_resolution res })
        snap.s_outcomes;
    unresolved := List.length requests - List.length !outcomes;
    if !unresolved < 0 then
      fail "snapshot settles more requests than this workload contains";
    next_lease := snap.s_next_lease;
    shed_total := snap.s_shed_total;
    gate_rejected := snap.s_gate_rejected;
    budget_exhaustions := snap.s_budget_exhaustions;
    peak_qubits := snap.s_peak_qubits;
    peak_queue := snap.s_peak_queue;
    retries := snap.s_retries;
    util_integral := snap.s_util_integral;
    last_time := snap.s_last_time;
    makespan := snap.s_makespan;
    faults_injected := snap.s_faults_injected;
    faults_repaired := snap.s_faults_repaired;
    leases_interrupted := snap.s_leases_interrupted;
    leases_recovered := snap.s_leases_recovered;
    leases_aborted := snap.s_leases_aborted;
    lost_service := snap.s_lost_service;
    reconfig_applied := snap.s_reconfig_applied;
    reconfig_recovered := snap.s_reconfig_recovered;
    (match (snap.s_limiter, limiter) with
    | Some st, Some lim -> Limiter.restore lim st
    | None, None -> ()
    | Some _, None ->
        fail
          "snapshot carries rate-limiter state but this run has no rate \
           limit (flags differ)"
    | None, Some _ ->
        fail
          "this run has a rate limiter but the snapshot has none (flags \
           differ)");
    (match (snap.s_health, health) with
    | Some sh, Some h -> (
        try Fhealth.restore h sh with Invalid_argument m -> fail m)
    | None, None -> ()
    | Some _, None ->
        fail
          "snapshot tracks element health but this run has no faults or \
           reconfiguration configured (flags differ)"
    | None, Some _ ->
        fail
          "this run tracks element health but the snapshot has none (flags \
           differ)");
    (match (snap.s_tier, cfg.tier_stats) with
    | Some st, Some (stats : Policy.tier_stats) ->
        let n = Array.length stats.Policy.names in
        if
          Array.length st.st_serves <> n
          || Array.length st.st_exhaustions <> n
          || Array.length st.st_verify_rejects <> n
          || Array.length st.st_breaker_skips <> n
          || Array.length st.st_breakers
             <> Array.length stats.Policy.breakers
        then fail "tiered-policy state has the wrong number of tiers";
        Array.blit st.st_serves 0 stats.Policy.serves 0 n;
        Array.blit st.st_exhaustions 0 stats.Policy.exhaustions 0 n;
        Array.blit st.st_verify_rejects 0 stats.Policy.verify_rejects 0 n;
        Array.blit st.st_breaker_skips 0 stats.Policy.breaker_skips 0 n;
        Array.iteri
          (fun i bs -> Breaker.restore stats.Policy.breakers.(i) bs)
          st.st_breakers;
        stats.Policy.last <- st.st_last
    | None, None -> ()
    | Some _, None ->
        fail "snapshot carries tiered-policy state but this run is untiered"
    | None, Some _ ->
        fail "this run is tiered but the snapshot has no tier state");
    (match (snap.s_policy, cfg.policy.Policy.state) with
    | Some doc, Some h -> (
        match h.Policy.load g params doc with
        | Ok () -> ()
        | Error m -> fail ("policy state: " ^ m))
    | None, None -> ()
    | Some _, None ->
        fail
          "snapshot carries policy state but this run's policy keeps none \
           (policies differ)"
    | None, Some _ ->
        fail
          "this run's policy keeps restorable state but the snapshot has \
           none (policies differ)");
    (match snap.s_metrics with
    | Some d when Tm.enabled () -> (
        try Tm.absorb d with Invalid_argument m -> fail m)
    | _ -> ());
    try
      Event_queue.load events ~next_seq:snap.s_next_seq
        (List.map (fun (t, seq, se) -> (t, seq, des_event se)) snap.s_events)
    with Invalid_argument m -> fail m
  in
  (* Populate the queue (fresh run) or rebuild the full engine state
     from a checkpoint (restore). *)
  (match restore_from with
  | Some snap -> restore_state snap
  | None ->
      List.iter
        (fun (r : Workload.request) ->
          Event_queue.push events r.Workload.arrival (Arrival r))
        requests;
      let schedule =
        match fault_schedule with
        | Some s -> List.sort Fsched.compare_event s
        | None -> (
            match faults with
            | None -> []
            | Some model ->
                Fsched.generate model g ~horizon:(fault_horizon requests))
      in
      List.iter
        (fun (fe : Fsched.event) -> Event_queue.push events fe.time (Fault fe))
        schedule;
      (* Reconfig events are pushed after arrivals and faults, so at a
         shared instant the tie-break order is arrival < fault < admin
         change — operators act on the state faults produced. *)
      List.iter
        (fun (re : Reconfig.event) ->
          Event_queue.push events re.Reconfig.time (Reconf re))
        (List.stable_sort
           (fun (a : Reconfig.event) b ->
             compare a.Reconfig.time b.Reconfig.time)
           reconfig));
  (* An event that can no longer change any outcome must not stretch the
     makespan or the utilization window. *)
  let inert = function
    | Fault _ | Reconf _ -> !unresolved = 0
    | Expiry lid -> not (Hashtbl.mem active lid)
    | Arrival _ | Retry _ -> false
  in
  let dispatch t ev =
    if not (inert ev) then begin
      util_integral :=
        !util_integral +. ((t -. !last_time) *. float_of_int !in_use);
      last_time := t;
      makespan := max !makespan t;
      match ev with
      | Arrival r -> on_arrival t r
      | Retry id -> on_retry t id
      | Expiry lid -> on_expiry t lid
      | Fault fe -> on_fault t fe
      | Reconf re -> on_reconf t re
    end
  in
  (* Checkpoint cadence.  Snapshots are cut between events — the state
     is then exactly "everything before the next event", which is what a
     restore replays from.  A restored run
     resumes the original cadence (the snapshot records the next
     instant), so its own checkpoints land where the uninterrupted
     run's would. *)
  let next_ckpt =
    ref
      (match (checkpoint, restore_from) with
      | None, _ -> infinity
      | Some (every, _), None -> every
      | Some (every, _), Some snap ->
          if Float.is_finite snap.s_next_ckpt && snap.s_next_ckpt > snap.s_at
          then snap.s_next_ckpt
          else begin
            let c = ref every in
            while !c <= snap.s_at do
              c := !c +. every
            done;
            !c
          end)
  in
  let make_snapshot at =
    let paths_of (tree : Ent_tree.t) =
      List.map (fun (c : Channel.t) -> c.Channel.path) tree.Ent_tree.channels
    in
    let ser_event = function
      | Arrival r -> SE_arrival r.Workload.id
      | Retry id -> SE_retry id
      | Expiry lid -> SE_expiry lid
      | Fault fe -> SE_fault fe
      | Reconf re -> SE_reconf re
    in
    let ser_resolution = function
      | Served { start; finish; tree; rate; attempts; recoveries; tier } ->
          SR_served
            {
              r_start = start;
              r_finish = finish;
              r_paths = paths_of tree;
              r_rate = rate;
              r_attempts = attempts;
              r_recoveries = recoveries;
              r_tier = tier;
            }
      | Rejected { at; queue_full } ->
          SR_rejected { r_at = at; r_queue_full = queue_full }
      | Shed { at; reason } -> SR_shed { r_at = at; r_reason = reason }
      | Expired { at; attempts } -> SR_expired { r_at = at; r_attempts = attempts }
      | Interrupted { start; at; attempts; recoveries } ->
          SR_interrupted
            {
              r_start = start;
              r_at = at;
              r_attempts = attempts;
              r_recoveries = recoveries;
            }
    in
    let sorted_by f l = List.sort (fun a b -> compare (f a) (f b)) l in
    {
      s_at = at;
      s_next_ckpt = !next_ckpt;
      s_events =
        List.map
          (fun (t, seq, ev) -> (t, seq, ser_event ev))
          (Event_queue.entries events);
      s_next_seq = Event_queue.next_seq events;
      s_states =
        Hashtbl.fold
          (fun id st acc ->
            {
              ss_id = id;
              ss_attempts = st.attempts;
              ss_backoff = st.backoff;
              ss_waiting = st.waiting;
              ss_resolved = st.resolved;
            }
            :: acc)
          states []
        |> sorted_by (fun ss -> ss.ss_id);
      s_queue = !queue;
      s_active =
        Hashtbl.fold
          (fun _ a acc ->
            {
              sa_lid = a.lid;
              sa_id = a.st.req.Workload.id;
              sa_paths = paths_of a.tree;
              sa_started = a.started;
              sa_finish = a.finish;
              sa_recoveries = a.recoveries;
              sa_tier = a.tier;
            }
            :: acc)
          active []
        |> sorted_by (fun sa -> sa.sa_lid);
      s_outcomes =
        List.map
          (fun o -> (o.request.Workload.id, ser_resolution o.resolution))
          !outcomes;
      s_next_lease = !next_lease;
      s_quota =
        List.filter_map
          (fun v ->
            let q = Capacity.quota capacity v in
            if q <> Graph.qubits g v then Some (v, q) else None)
          (Graph.switches g);
      s_residual =
        List.filter_map
          (fun v ->
            let r = Capacity.remaining capacity v in
            if r <> Capacity.quota capacity v then Some (v, r) else None)
          (Graph.switches g);
      s_shed_total = !shed_total;
      s_gate_rejected = !gate_rejected;
      s_budget_exhaustions = !budget_exhaustions;
      s_peak_qubits = !peak_qubits;
      s_peak_queue = !peak_queue;
      s_retries = !retries;
      s_util_integral = !util_integral;
      s_last_time = !last_time;
      s_makespan = !makespan;
      s_faults_injected = !faults_injected;
      s_faults_repaired = !faults_repaired;
      s_leases_interrupted = !leases_interrupted;
      s_leases_recovered = !leases_recovered;
      s_leases_aborted = !leases_aborted;
      s_lost_service = !lost_service;
      s_reconfig_applied = !reconfig_applied;
      s_reconfig_recovered = !reconfig_recovered;
      s_limiter = Option.map Limiter.snapshot limiter;
      s_health = Option.map Fhealth.snapshot health;
      s_tier =
        Option.map
          (fun (stats : Policy.tier_stats) ->
            {
              st_serves = Array.copy stats.Policy.serves;
              st_exhaustions = Array.copy stats.Policy.exhaustions;
              st_verify_rejects = Array.copy stats.Policy.verify_rejects;
              st_breaker_skips = Array.copy stats.Policy.breaker_skips;
              st_breakers = Array.map Breaker.snapshot stats.Policy.breakers;
              st_last = stats.Policy.last;
            })
          cfg.tier_stats;
      s_policy =
        Option.map
          (fun (h : Policy.state_hooks) -> h.Policy.save ())
          cfg.policy.Policy.state;
      s_metrics = (if Tm.enabled () then Some (Tm.dump ()) else None);
    }
  in
  let rec drain () =
    match Event_queue.peek_time events with
    | None -> ()
    | Some t0 ->
        (match checkpoint with
        | Some (every, sink) ->
            (* Emit every due checkpoint before the next event: the state
               right now is exactly "all events before [t0] processed",
               the boundary a restore resumes from. *)
            while !next_ckpt <= t0 do
              let c = !next_ckpt in
              next_ckpt := c +. every;
              sink c (make_snapshot c)
            done
        | None -> ());
        Option.iter (fun (t, ev) -> dispatch t ev) (Event_queue.pop events);
        drain ()
  in
  drain ();
  (* Every lease has completed or been aborted; any residual consumption
     now is a refund bug, caught here rather than as silent
     over-capacity in the next run. *)
  List.iter
    (fun s ->
      if Capacity.used capacity s <> 0 then
        failwith "Engine.run: internal capacity leak (unreleased qubits)")
    (Graph.switches g);
  let outcomes =
    List.sort
      (fun a b -> compare a.request.Workload.id b.request.Workload.id)
      !outcomes
  in
  (* Watchdog pass: independently re-validate every tree that was put in
     service, including repaired and rerouted ones. *)
  List.iter
    (fun o ->
      match o.resolution with
      | Served { tree; _ } ->
          Verify.check_exn ~context:"served tree" g params
            ~users:o.request.Workload.users tree
      | _ -> ())
    outcomes;
  let waits, rates =
    List.fold_left
      (fun (ws, rs) o ->
        match o.resolution with
        | Served { start; rate; _ } ->
            ((start -. o.request.Workload.arrival) :: ws, rate :: rs)
        | Rejected _ | Shed _ | Expired _ | Interrupted _ -> (ws, rs))
      ([], []) outcomes
  in
  let count pred = List.length (List.filter pred outcomes) in
  let served = List.length waits in
  let rejected =
    count (fun o -> match o.resolution with Rejected _ -> true | _ -> false)
  in
  let expired =
    count (fun o -> match o.resolution with Expired _ -> true | _ -> false)
  in
  let arrived = List.length requests in
  let mean = function
    | [] -> 0.
    | l -> Qnet_util.Stats.mean (Array.of_list l)
  in
  let p95 = function
    | [] -> 0.
    | l -> Qnet_util.Stats.percentile (Array.of_list l) 95.
  in
  let p99 = function
    | [] -> 0.
    | l -> Qnet_util.Stats.percentile (Array.of_list l) 99.
  in
  let degraded =
    count (fun o ->
        match o.resolution with Served { tier; _ } -> tier > 0 | _ -> false)
  in
  let tier_served =
    match cfg.tier_stats with
    | None -> []
    | Some stats ->
        let counts = Array.make (Array.length stats.Policy.names) 0 in
        List.iter
          (fun o ->
            match o.resolution with
            | Served { tier; _ }
              when tier >= 0 && tier < Array.length counts ->
                counts.(tier) <- counts.(tier) + 1
            | _ -> ())
          outcomes;
        Array.to_list
          (Array.mapi (fun i n -> (stats.Policy.names.(i), n)) counts)
  in
  let budget_exhaustions =
    !budget_exhaustions
    + (match cfg.tier_stats with
      | None -> 0
      | Some stats -> Array.fold_left ( + ) 0 stats.Policy.exhaustions)
  in
  let breaker_opens =
    match cfg.tier_stats with
    | None -> 0
    | Some stats ->
        Array.fold_left
          (fun acc b -> acc + Breaker.opens b)
          0 stats.Policy.breakers
  in
  let budget = total_switch_qubits g in
  let mean_utilization =
    if !makespan > 0. && budget > 0 then
      !util_integral /. (!makespan *. float_of_int budget)
    else 0.
  in
  Tm.Gauge.set_max g_peak_qubits (float_of_int !peak_qubits);
  Tm.Gauge.set_max g_peak_queue (float_of_int !peak_queue);
  Tm.Gauge.set g_utilization mean_utilization;
  ( {
      arrived;
      served;
      rejected;
      expired;
      acceptance_ratio =
        (if arrived = 0 then 0.
         else float_of_int served /. float_of_int arrived);
      mean_wait = mean waits;
      p95_wait = p95 waits;
      mean_rate = mean rates;
      throughput =
        (if !makespan > 0. then float_of_int served /. !makespan else 0.);
      makespan = !makespan;
      peak_qubits_in_use = !peak_qubits;
      peak_queue_depth = !peak_queue;
      retries = !retries;
      mean_utilization;
      faults_injected = !faults_injected;
      faults_repaired = !faults_repaired;
      leases_interrupted = !leases_interrupted;
      leases_recovered = !leases_recovered;
      leases_aborted = !leases_aborted;
      mean_time_to_repair =
        (match health with None -> 0. | Some h -> Fhealth.observed_mttr h);
      mean_lost_service =
        (if !leases_aborted = 0 then 0.
         else !lost_service /. float_of_int !leases_aborted);
      shed = !shed_total;
      gate_rejected = !gate_rejected;
      degraded;
      tier_served;
      budget_exhaustions;
      breaker_opens;
      p99_wait = p99 waits;
      reconfig_applied = !reconfig_applied;
      reconfig_recovered = !reconfig_recovered;
    },
    outcomes )

let report_table r =
  let t = Qnet_util.Table.create [ "metric"; "value" ] in
  let int name v = (name, string_of_int v) in
  let flt name v = (name, Qnet_util.Table.float_cell v) in
  List.fold_left
    (fun t (name, v) -> Qnet_util.Table.add_row t [ name; v ])
    t
    [
      int "arrived" r.arrived;
      int "served" r.served;
      int "rejected" r.rejected;
      int "expired" r.expired;
      flt "acceptance_ratio" r.acceptance_ratio;
      flt "mean_wait" r.mean_wait;
      flt "p95_wait" r.p95_wait;
      flt "mean_rate" r.mean_rate;
      flt "throughput" r.throughput;
      flt "makespan" r.makespan;
      int "peak_qubits_in_use" r.peak_qubits_in_use;
      int "peak_queue_depth" r.peak_queue_depth;
      int "retries" r.retries;
      flt "mean_utilization" r.mean_utilization;
      int "faults_injected" r.faults_injected;
      int "faults_repaired" r.faults_repaired;
      int "leases_interrupted" r.leases_interrupted;
      int "leases_recovered" r.leases_recovered;
      int "leases_aborted" r.leases_aborted;
      flt "mean_time_to_repair" r.mean_time_to_repair;
      flt "mean_lost_service" r.mean_lost_service;
    ]
  |> fun t ->
  (* Overload rows appear only when overload control did something, so
     a limits-disabled run prints the exact PR-4 era table. *)
  (if
     r.shed = 0 && r.degraded = 0 && r.budget_exhaustions = 0
     && r.breaker_opens = 0 && r.gate_rejected = 0
     && r.tier_served = []
   then t
   else
     List.fold_left
       (fun t (name, v) -> Qnet_util.Table.add_row t [ name; v ])
       t
       ([
          int "shed" r.shed;
          int "gate_rejected" r.gate_rejected;
          int "degraded" r.degraded;
          int "budget_exhaustions" r.budget_exhaustions;
          int "breaker_opens" r.breaker_opens;
          flt "p99_wait" r.p99_wait;
        ]
       @ List.map
           (fun (name, n) -> int ("tier_served:" ^ name) n)
           r.tier_served))
  |> fun t ->
  (* Reconfiguration rows likewise appear only when an admin change was
     applied, keeping reconfig-free tables byte-identical to PR-8. *)
  if r.reconfig_applied = 0 && r.reconfig_recovered = 0 then t
  else
    List.fold_left
      (fun t (name, v) -> Qnet_util.Table.add_row t [ name; v ])
      t
      [
        int "reconfig_applied" r.reconfig_applied;
        int "reconfig_recovered" r.reconfig_recovered;
      ]
