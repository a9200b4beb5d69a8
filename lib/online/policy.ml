module Graph = Qnet_graph.Graph
module Tm = Qnet_telemetry.Metrics
open Qnet_core

(* Hooks a stateful policy exposes so the engine can carry its hidden
   state across a snapshot/restore cycle.  [save] captures the state as
   a pure sexp document; [load] rebuilds it against the restoring run's
   graph and params. *)
type state_hooks = {
  save : unit -> Qnet_util.Sexp.t;
  load : Graph.t -> Params.t -> Qnet_util.Sexp.t -> (unit, string) result;
}

type t = {
  name : string;
  state : state_hooks option;
  route :
    exclude:Routing.exclusion ->
    budget:Qnet_overload.Budget.t option ->
    Graph.t ->
    Params.t ->
    capacity:Capacity.t ->
    users:int list ->
    Ent_tree.t option;
}

let route p ?(exclude = Routing.no_exclusion) ?budget g params ~capacity
    ~users =
  p.route ~exclude ~budget g params ~capacity ~users

let try_consume capacity (tree : Ent_tree.t) =
  let usage = Ent_tree.qubit_usage tree in
  if
    List.for_all (fun (v, q) -> Capacity.remaining capacity v >= q) usage
  then begin
    List.iter
      (fun (c : Channel.t) -> Capacity.consume_channel capacity c.path)
      tree.Ent_tree.channels;
    true
  end
  else false

let prim =
  {
    name = "prim";
    state = None;
    route =
      (fun ~exclude ~budget g params ~capacity ~users ->
        Multi_group.prim_for_users ~exclude ?budget g params ~capacity ~users);
  }

(* A residual view of the network for whole-network solvers: the
   request's users are the only user vertices, every other vertex is a
   switch whose budget is its current residual (idle users become
   0-qubit switches — they could not relay as users either, since
   channel interiors must be switches).  Vertices are re-added in id
   order, so view ids coincide with real ids and paths translate back
   verbatim. *)
let residual_view ~exclude g ~capacity ~users =
  let member = Array.make (Graph.vertex_count g) false in
  List.iter (fun u -> member.(u) <- true) users;
  let b = Graph.Builder.create () in
  Graph.iter_vertices g (fun v ->
      let kind, qubits =
        if member.(v.Graph.id) then (Graph.User, 0)
        else if Graph.is_switch g v.Graph.id then
          ( Graph.Switch,
            (* A failed switch routes nothing, whatever its residual. *)
            if exclude.Routing.vertex_ok v.Graph.id then
              Capacity.remaining capacity v.Graph.id
            else 0 )
        else (Graph.Switch, 0)
      in
      ignore
        (Graph.Builder.add_vertex b ~kind ~qubits ~x:v.Graph.x ~y:v.Graph.y));
  Graph.iter_edges g (fun e ->
      (* Failed fibers simply do not exist in the view.  View edge ids
         shift, but channels translate back by vertex path, never by
         edge id. *)
      if exclude.Routing.edge_ok e.Graph.eid then
        ignore (Graph.Builder.add_edge b e.Graph.a e.Graph.b e.Graph.length));
  Graph.Builder.freeze b

(* Rebuild a view tree's channels on the real graph (re-validating
   every path), then admit it against the true capacity state.  The
   exclusion re-check matters for capacity-oblivious solvers (Alg. 2
   ignores the zeroed budget of a failed switch in the view), and keeps
   admission sound even if a view and the exclusion ever disagree. *)
let admit_view_tree ~exclude g params ~capacity (tree : Ent_tree.t) =
  let channels =
    List.fold_left
      (fun acc (c : Channel.t) ->
        match acc with
        | None -> None
        | Some cs ->
            if not (Routing.path_ok g exclude c.Channel.path) then None
            else (
              match Channel.make g params c.Channel.path with
              | Ok c -> Some (c :: cs)
              | Error _ -> None))
      (Some []) tree.Ent_tree.channels
  in
  match channels with
  | None -> None
  | Some cs ->
      let tree = Ent_tree.of_channels (List.rev cs) in
      if try_consume capacity tree then Some tree else None

let of_algorithm alg =
  let name =
    match alg with
    | Muerp.Optimal -> "alg2"
    | Muerp.Conflict_free -> "alg3"
    | Muerp.Prim_based -> "alg4"
    | Muerp.Exhaustive -> "exhaustive"
  in
  {
    name;
    state = None;
    route =
      (fun ~exclude ~budget g params ~capacity ~users ->
        let view = residual_view ~exclude g ~capacity ~users in
        let outcome = Muerp.solve ?budget alg (Muerp.instance ~params view) in
        match outcome.Muerp.tree with
        | None -> None
        | Some tree -> admit_view_tree ~exclude g params ~capacity tree);
  }

let eqcast =
  {
    name = "eqcast";
    state = None;
    route =
      (fun ~exclude ~budget g params ~capacity ~users ->
        let view = residual_view ~exclude g ~capacity ~users in
        match Qnet_baselines.Eqcast.solve ?budget view params with
        | None -> None
        | Some tree -> admit_view_tree ~exclude g params ~capacity tree);
  }

let base =
  [
    prim;
    of_algorithm Muerp.Conflict_free;
    of_algorithm Muerp.Optimal;
    eqcast;
  ]

(* External policies (e.g. the flow optimizer in [Qnet_flow]) plug into
   the roster here instead of this module depending on them.  The
   registry stores constructors, so every lookup gets a fresh
   instance. *)
let registry : (string, unit -> t) Hashtbl.t = Hashtbl.create 8

let register name mk =
  if name = "" then invalid_arg "Policy.register: empty name";
  if List.exists (fun p -> p.name = name) base then
    invalid_arg ("Policy.register: " ^ name ^ " is a built-in policy");
  Hashtbl.replace registry name mk

let of_name name =
  match List.find_opt (fun p -> p.name = name) base with
  | Some p -> Some p
  | None -> Option.map (fun mk -> mk ()) (Hashtbl.find_opt registry name)

(* -------------------------------------------------------------------- *)
(* Tiered graceful degradation.                                          *)

module Budget = Qnet_overload.Budget
module Breaker = Qnet_overload.Breaker

let c_tier_exhaustions = Tm.counter "online.overload.budget_exhausted"
let c_tier_verify_rejects = Tm.counter "online.overload.verify_rejected"
let c_tier_breaker_skips = Tm.counter "online.overload.breaker_skips"
let c_tier_breaker_opens = Tm.counter "online.overload.breaker_opens"

type tier_stats = {
  names : string array;
  serves : int array;
  exhaustions : int array;
  verify_rejects : int array;
  breaker_skips : int array;
  breakers : Breaker.t array;
  mutable last : int;
}

let tier_stats_make names breakers =
  let n = Array.length names in
  {
    names;
    serves = Array.make n 0;
    exhaustions = Array.make n 0;
    verify_rejects = Array.make n 0;
    breaker_skips = Array.make n 0;
    breakers;
    last = -1;
  }

let release_tree capacity (tree : Ent_tree.t) =
  List.iter
    (fun (c : Channel.t) -> Capacity.release_channel capacity c.path)
    tree.Ent_tree.channels

let tiered ?(fuel = 4096) ?breaker_threshold ?breaker_cooldown tiers =
  if tiers = [] then invalid_arg "Policy.tiered: no tiers";
  if fuel <= 0 then invalid_arg "Policy.tiered: fuel must be positive";
  (* The ladder's own state is [None], so a tier's hidden state would
     not reach the snapshot and a restored run would diverge. *)
  List.iter
    (fun p ->
      if Option.is_some p.state then
        invalid_arg ("Policy.tiered: tier " ^ p.name ^ " keeps hidden state"))
    tiers;
  let tiers = Array.of_list tiers in
  let n = Array.length tiers in
  let breakers =
    Array.init n (fun _ ->
        Breaker.create ?failure_threshold:breaker_threshold
          ?cooldown:breaker_cooldown ())
  in
  let stats = tier_stats_make (Array.map (fun p -> p.name) tiers) breakers in
  let name =
    "tiered("
    ^ String.concat ">" (Array.to_list (Array.map (fun p -> p.name) tiers))
    ^ ")"
  in
  let route ~exclude ~budget:_ g params ~capacity ~users =
    (* The combinator owns fuel policy: every tier but the floor gets a
       fresh budget, the floor runs unmetered so overload degrades to
       cheap routing instead of blanket rejection. *)
    let breaker_failure i =
      let br = breakers.(i) in
      let before = Breaker.opens br in
      Breaker.failure br;
      if Breaker.opens br > before then Tm.Counter.incr c_tier_breaker_opens
    in
    let rec attempt i =
      if i >= n then None
      else if not (Breaker.allow breakers.(i)) then begin
        stats.breaker_skips.(i) <- stats.breaker_skips.(i) + 1;
        Tm.Counter.incr c_tier_breaker_skips;
        attempt (i + 1)
      end
      else begin
        let budget = if i = n - 1 then None else Some (Budget.create ~fuel) in
        match tiers.(i).route ~exclude ~budget g params ~capacity ~users with
        | exception Budget.Exhausted _ ->
            stats.exhaustions.(i) <- stats.exhaustions.(i) + 1;
            Tm.Counter.incr c_tier_exhaustions;
            breaker_failure i;
            attempt (i + 1)
        | None ->
            (* Infeasibility under the residual state is an honest
               answer, not a tier fault: leave the breaker alone and let
               a cheaper tier (different search order) try. *)
            attempt (i + 1)
        | Some tree ->
            let structural =
              Verify.check g params ~users tree
              |> List.filter (function
                   | Verify.Capacity_exceeded _ ->
                       (* The policy contract already consumed the tree
                          from the shared residual state, so cumulative
                          capacity holds; a single tree can never exceed
                          total budgets on its own. *)
                       false
                   | Verify.Bad_channel _ | Verify.Not_a_spanning_tree
                   | Verify.Rate_mismatch _ ->
                       true)
            in
            if structural <> [] then begin
              release_tree capacity tree;
              stats.verify_rejects.(i) <- stats.verify_rejects.(i) + 1;
              Tm.Counter.incr c_tier_verify_rejects;
              breaker_failure i;
              attempt (i + 1)
            end
            else begin
              Breaker.success breakers.(i);
              stats.serves.(i) <- stats.serves.(i) + 1;
              stats.last <- i;
              Some tree
            end
      end
    in
    stats.last <- -1;
    attempt 0
  in
  (* Breakers and tier stats are mutable state, and [stats.last] is
     sampled right after each call.  Checkpointing is fine: the engine
     snapshot carries breaker and tier-stat state. *)
  ({ name; state = None; route }, stats)
