module Graph = Qnet_graph.Graph
module Prng = Qnet_util.Prng
module Tm = Qnet_telemetry.Metrics
open Qnet_core

let c_accepted = Tm.counter "sim.scheduler.accepted_leases"
let c_rejected = Tm.counter "sim.scheduler.rejected_requests"
let c_expired = Tm.counter "sim.scheduler.expired_leases"
let g_peak_qubits = Tm.gauge "sim.scheduler.peak_qubits_in_use"

type request = { id : int; users : int list; arrival : int; duration : int }
type policy = Drop | Queue of int

module Lease = struct
  type t = {
    paths : int list list;
    usage : (int * int) list;
    mutable released : bool;
  }

  let acquire (tree : Ent_tree.t) =
    {
      paths =
        List.map (fun (c : Channel.t) -> c.path) tree.Ent_tree.channels;
      usage = Ent_tree.qubit_usage tree;
      released = false;
    }

  let channels t = t.paths
  let qubits t = List.fold_left (fun acc (_, q) -> acc + q) 0 t.usage

  (* Interior vertices of a channel path (everything but the user
     endpoints) — by construction all switches, each pinning 2 qubits;
     the same rule as [Capacity.consume_channel]. *)
  let interior = function
    | [] | [ _ ] -> []
    | _ :: rest ->
        let rec drop_last = function
          | [] | [ _ ] -> []
          | x :: tl -> x :: drop_last tl
        in
        drop_last rest

  let usage_of_paths paths =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun p ->
        List.iter
          (fun v ->
            Hashtbl.replace tbl v
              (2 + Option.value ~default:0 (Hashtbl.find_opt tbl v)))
          (interior p))
      paths;
    Hashtbl.fold (fun v q acc -> (v, q) :: acc) tbl [] |> List.sort compare

  let check_refund ~who capacity usage =
    List.iter
      (fun (v, q) ->
        if Capacity.used capacity v < q then
          invalid_arg
            (who
           ^ ": capacity invariant violated (refund exceeds recorded \
              consumption)"))
      usage

  let release_where capacity t ~dead =
    if t.released then
      invalid_arg "Scheduler.Lease.release_where: already released";
    let dead_paths, live_paths = List.partition dead t.paths in
    if dead_paths = [] then (Some t, [])
    else begin
      check_refund ~who:"Scheduler.Lease.release_where" capacity
        (usage_of_paths dead_paths);
      List.iter (Capacity.release_channel capacity) dead_paths;
      t.released <- true;
      let remainder =
        if live_paths = [] then None
        else
          Some
            {
              paths = live_paths;
              usage = usage_of_paths live_paths;
              released = false;
            }
      in
      (remainder, dead_paths)
    end

  let release capacity t =
    if t.released then invalid_arg "Scheduler.Lease.release: already released";
    (* Invariant: a refund may never push a switch above its budget,
       i.e. every switch the lease pinned must still show at least the
       lease's consumption.  A violation means the lease's qubits were
       double-released or released by someone else — a controller bug,
       caught here rather than as silent over-capacity later. *)
    List.iter
      (fun (v, q) ->
        if Capacity.used capacity v < q then
          invalid_arg
            "Scheduler.Lease.release: capacity invariant violated (refund \
             exceeds recorded consumption)")
      t.usage;
    List.iter (Capacity.release_channel capacity) t.paths;
    t.released <- true
end

type disposition =
  | Accepted of { slot : int; tree : Ent_tree.t; rate : float }
  | Rejected of { slot : int }

type outcome = { request : request; disposition : disposition }

type stats = {
  arrived : int;
  accepted : int;
  rejected : int;
  acceptance_ratio : float;
  mean_accepted_rate : float;
  mean_wait_slots : float;
  peak_qubits_in_use : int;
}

let validate g requests =
  let ids = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if Hashtbl.mem ids r.id then
        invalid_arg "Scheduler.run: duplicate request id";
      Hashtbl.replace ids r.id ();
      if r.arrival < 0 then invalid_arg "Scheduler.run: negative arrival";
      if r.duration < 1 then invalid_arg "Scheduler.run: duration < 1";
      if List.length r.users < 2 then
        invalid_arg "Scheduler.run: request needs >= 2 users";
      List.iter
        (fun u ->
          if not (Graph.is_user g u) then
            invalid_arg "Scheduler.run: request member is not a user")
        r.users;
      if
        List.length (List.sort_uniq compare r.users)
        <> List.length r.users
      then invalid_arg "Scheduler.run: duplicate users in request")
    requests

let total_used g capacity =
  List.fold_left
    (fun acc s -> acc + Capacity.used capacity s)
    0 (Graph.switches g)

let run ?(policy = Drop) g params ~requests =
  validate g requests;
  let capacity = Capacity.of_graph g in
  let pending =
    (* FIFO by (arrival, id). *)
    ref
      (List.sort
         (fun a b -> compare (a.arrival, a.id) (b.arrival, b.id))
         requests)
  in
  let waiting = ref [] in
  (* (request, deadline_slot) *)
  let leases = ref [] in
  (* (expiry_slot, lease) *)
  let outcomes = ref [] in
  let peak = ref 0 in
  let decide slot r =
    match
      Qnet_telemetry.Span.with_span "scheduler.admit" (fun () ->
          Multi_group.prim_for_users g params ~capacity ~users:r.users)
    with
    | Some tree ->
        Tm.Counter.incr c_accepted;
        (* prim_for_users already consumed the qubits. *)
        leases := (slot + r.duration, Lease.acquire tree) :: !leases;
        peak := max !peak (total_used g capacity);
        Qnet_util.Log.debug "scheduler: accepted request %d at slot %d" r.id
          slot;
        outcomes :=
          {
            request = r;
            disposition =
              Accepted { slot; tree; rate = Ent_tree.rate_prob tree };
          }
          :: !outcomes;
        true
    | None -> false
  in
  let slot = ref 0 in
  while !pending <> [] || !waiting <> [] || !leases <> [] do
    let t = !slot in
    (* 1. Expire leases that end at this slot. *)
    let expired, alive = List.partition (fun (e, _) -> e <= t) !leases in
    Tm.Counter.add c_expired (List.length expired);
    List.iter (fun (_, lease) -> Lease.release capacity lease) expired;
    leases := alive;
    (* 2. Retry the waiting queue in FIFO order. *)
    let still_waiting = ref [] in
    List.iter
      (fun (r, deadline) ->
        if decide t r then ()
        else if t >= deadline then begin
          Tm.Counter.incr c_rejected;
          outcomes := { request = r; disposition = Rejected { slot = t } } :: !outcomes
        end
        else still_waiting := (r, deadline) :: !still_waiting)
      (List.rev !waiting);
    waiting := List.rev !still_waiting;
    (* 3. Admit this slot's arrivals. *)
    let arrivals, later = List.partition (fun r -> r.arrival <= t) !pending in
    pending := later;
    List.iter
      (fun r ->
        if decide t r then ()
        else
          match policy with
          | Drop ->
              Tm.Counter.incr c_rejected;
              outcomes :=
                { request = r; disposition = Rejected { slot = t } }
                :: !outcomes
          | Queue max_wait -> waiting := !waiting @ [ (r, t + max_wait) ])
      arrivals;
    incr slot
  done;
  let outcomes = List.rev !outcomes in
  let accepted_rates, waits =
    List.fold_left
      (fun (rates, waits) o ->
        match o.disposition with
        | Accepted { slot; rate; _ } ->
            (rate :: rates, float_of_int (slot - o.request.arrival) :: waits)
        | Rejected _ -> (rates, waits))
      ([], []) outcomes
  in
  let accepted = List.length accepted_rates in
  let arrived = List.length requests in
  Tm.Gauge.set_max g_peak_qubits (float_of_int !peak);
  let mean l =
    match l with
    | [] -> 0.
    | _ -> Qnet_util.Stats.mean (Array.of_list l)
  in
  ( {
      arrived;
      accepted;
      rejected = arrived - accepted;
      acceptance_ratio =
        (if arrived = 0 then 0.
         else float_of_int accepted /. float_of_int arrived);
      mean_accepted_rate = mean accepted_rates;
      mean_wait_slots = mean waits;
      peak_qubits_in_use = !peak;
    },
    outcomes )

let random_requests rng g ~n ~mean_gap ~max_group ~duration_range =
  if n < 0 then invalid_arg "Scheduler.random_requests: negative n";
  if mean_gap < 0. then invalid_arg "Scheduler.random_requests: negative gap";
  let users = Array.of_list (Graph.users g) in
  let population = Array.length users in
  if max_group < 2 then
    invalid_arg "Scheduler.random_requests: max_group < 2";
  if max_group > population then
    invalid_arg "Scheduler.random_requests: max_group exceeds user count";
  let lo, hi = duration_range in
  if lo < 1 || hi < lo then
    invalid_arg "Scheduler.random_requests: bad duration range";
  let arrival = ref 0 in
  List.init n (fun id ->
      (if mean_gap > 0. then
         arrival :=
           !arrival + int_of_float (Float.round (Prng.exponential rng (1. /. mean_gap))));
      let size = Prng.int_in_range rng ~min:2 ~max:max_group in
      let members =
        Prng.sample_without_replacement rng size population
        |> List.map (fun i -> users.(i))
      in
      {
        id;
        users = members;
        arrival = !arrival;
        duration = Prng.int_in_range rng ~min:lo ~max:hi;
      })
