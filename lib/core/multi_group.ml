module Graph = Qnet_graph.Graph
module Logprob = Qnet_util.Logprob

let c_rounds = Qnet_telemetry.Metrics.counter "core.alg4.grow_rounds"

type strategy = Sequential | Round_robin

type group_result = {
  group : int list;
  tree : Ent_tree.t option;
  rate : float;
}

type t = {
  strategy : strategy;
  groups : group_result list;
  all_feasible : bool;
  aggregate_neg_log : float;
  min_rate : float;
}

let validate_groups g groups =
  if groups = [] then invalid_arg "Multi_group.solve: no groups";
  let seen = Hashtbl.create 16 in
  List.iter
    (fun group ->
      if group = [] then invalid_arg "Multi_group.solve: empty group";
      List.iter
        (fun u ->
          if not (Graph.is_user g u) then
            invalid_arg "Multi_group.solve: group member is not a user";
          if Hashtbl.mem seen u then
            invalid_arg "Multi_group.solve: groups overlap";
          Hashtbl.replace seen u ())
        group)
    groups

(* One grow step of Algorithm 4: the maximum-rate channel from the grown
   set [inside] to any user of [outside_users], under the shared residual
   capacity.  Without an [oracle] that is one multi-source search in
   which all inside users start at distance 0 and the search stops once
   every outside user has settled ([Routing.best_channels_between]); the
   best of the per-target channels wins.  With an [oracle] the step
   becomes per-pair point queries, which the oracle is expected to make
   cheap — e.g. hierarchically.  Ties keep the first candidate seen. *)
let best_attachment ?exclude ?budget ?oracle g params ~capacity ~inside
    ~outside_users =
  Qnet_telemetry.Metrics.Counter.incr c_rounds;
  let best = ref None in
  let consider (c : Channel.t) =
    match !best with
    | Some (b : Channel.t) when Logprob.compare_desc b.rate c.rate <= 0 -> ()
    | _ -> best := Some c
  in
  (match oracle with
  | Some (query : Routing.channel_oracle) ->
      let exclude = Option.value exclude ~default:Routing.no_exclusion in
      Hashtbl.iter
        (fun src () ->
          List.iter
            (fun dst ->
              match query ~exclude ~budget ~capacity ~src ~dst with
              | None -> ()
              | Some c -> consider c)
            outside_users)
        inside
  | None ->
      Routing.best_channels_between ?exclude ?budget g params ~capacity
        ~sources:(List.of_seq (Hashtbl.to_seq_keys inside))
        ~targets:outside_users
      |> List.iter (fun (_, c) -> consider c));
  !best

let prim_for_users ?exclude ?budget ?oracle g params ~capacity ~users =
  match users with
  | [] -> invalid_arg "Multi_group.prim_for_users: empty user set"
  | [ _ ] -> Some (Ent_tree.of_channels [])
  | start :: _ ->
      let inside = Hashtbl.create (List.length users) in
      Hashtbl.replace inside start ();
      let remaining = ref (List.filter (fun u -> u <> start) users) in
      let consumed = ref [] in
      let rollback () =
        (* Roll back so a failed (or fuel-starved) group leaves shared
           capacity unchanged for the groups after it. *)
        List.iter (Capacity.release_channel capacity) !consumed
      in
      let rec grow acc =
        if !remaining = [] then Some (Ent_tree.of_channels (List.rev acc))
        else
          match
            best_attachment ?exclude ?budget ?oracle g params ~capacity
              ~inside ~outside_users:!remaining
          with
          | None ->
              rollback ();
              None
          | Some c ->
              Capacity.consume_channel capacity c.path;
              consumed := c.path :: !consumed;
              let fresh = if Hashtbl.mem inside c.src then c.dst else c.src in
              Hashtbl.replace inside fresh ();
              remaining := List.filter (fun u -> u <> fresh) !remaining;
              grow (c :: acc)
      in
      (* Budget exhaustion mid-grow must not leak partial consumption
         into the shared capacity the engine asserts over. *)
      (try grow [] with
      | Qnet_overload.Budget.Exhausted _ as e ->
          rollback ();
          raise e)

(* Round-robin: every group keeps a grown set; rounds attach one channel
   per unfinished group.  A group that cannot extend is marked failed
   and its channels are released. *)
type rr_state = {
  rr_group : int list;
  rr_inside : (int, unit) Hashtbl.t;
  mutable rr_remaining : int list;
  mutable rr_channels : Channel.t list;
  mutable rr_consumed : int list list;
  mutable rr_failed : bool;
}

let rr_finished s = s.rr_remaining = [] || s.rr_failed

let rr_step g params ~capacity s =
  match
    best_attachment g params ~capacity ~inside:s.rr_inside
      ~outside_users:s.rr_remaining
  with
  | None ->
      s.rr_failed <- true;
      List.iter (Capacity.release_channel capacity) s.rr_consumed
  | Some c ->
      Capacity.consume_channel capacity c.path;
      s.rr_consumed <- c.path :: s.rr_consumed;
      let fresh =
        if Hashtbl.mem s.rr_inside c.Channel.src then c.Channel.dst
        else c.Channel.src
      in
      Hashtbl.replace s.rr_inside fresh ();
      s.rr_remaining <- List.filter (fun u -> u <> fresh) s.rr_remaining;
      s.rr_channels <- c :: s.rr_channels

let round_robin g params ~capacity groups =
  let states =
    List.map
      (fun group ->
        match group with
        | [] -> assert false
        | start :: rest ->
            let inside = Hashtbl.create 8 in
            Hashtbl.replace inside start ();
            {
              rr_group = group;
              rr_inside = inside;
              rr_remaining = rest;
              rr_channels = [];
              rr_consumed = [];
              rr_failed = false;
            })
      groups
  in
  let rec rounds () =
    if List.exists (fun s -> not (rr_finished s)) states then begin
      List.iter
        (fun s -> if not (rr_finished s) then rr_step g params ~capacity s)
        states;
      rounds ()
    end
  in
  rounds ();
  List.map
    (fun s ->
      ( s.rr_group,
        if s.rr_failed then None
        else Some (Ent_tree.of_channels (List.rev s.rr_channels)) ))
    states

let summarise strategy results =
  let groups =
    List.map
      (fun (group, tree) ->
        {
          group;
          tree;
          rate = (match tree with None -> 0. | Some t -> Ent_tree.rate_prob t);
        })
      results
  in
  let all_feasible = List.for_all (fun r -> r.tree <> None) groups in
  let aggregate_neg_log =
    List.fold_left
      (fun acc r ->
        match r.tree with
        | None -> acc
        | Some t -> acc +. Ent_tree.rate_neg_log t)
      0. groups
  in
  let min_rate =
    List.fold_left (fun acc r -> Float.min acc r.rate) 1. groups
  in
  { strategy; groups; all_feasible; aggregate_neg_log; min_rate }

let solve ?(strategy = Sequential) g params ~groups =
  validate_groups g groups;
  let capacity = Capacity.of_graph g in
  let results =
    match strategy with
    | Sequential ->
        List.map
          (fun group ->
            (group, prim_for_users g params ~capacity ~users:group))
          groups
    | Round_robin -> round_robin g params ~capacity groups
  in
  summarise strategy results
