module Graph = Qnet_graph.Graph
module Paths = Qnet_graph.Paths
module Tm = Qnet_telemetry.Metrics

let c_sssp_runs = Tm.counter "core.routing.sssp_runs"
let c_channels_built = Tm.counter "core.routing.channels_built"
let c_enumerations = Tm.counter "core.routing.enumerations"

let edge_weight params (e : Graph.edge) =
  Params.link_neg_log params e.length +. Params.swap_neg_log params

type exclusion = { vertex_ok : int -> bool; edge_ok : int -> bool }

let no_exclusion = { vertex_ok = (fun _ -> true); edge_ok = (fun _ -> true) }

let path_ok g exclude path =
  let rec edges_up = function
    | [] | [ _ ] -> true
    | u :: (v :: _ as rest) -> (
        match Graph.find_edge g u v with
        | None -> false
        | Some eid -> exclude.edge_ok eid && edges_up rest)
  in
  List.for_all exclude.vertex_ok path && edges_up path

let check_user g v =
  if not (Graph.is_user g v) then
    invalid_arg "Routing: endpoint is not a quantum user"

(* With q = 0 every swap fails, so the only viable channels are direct
   user-to-user fibers; the additive-weight transform would degenerate
   to infinity - infinity there, hence the special case. *)
let direct_only g params ~exclude ~src =
  List.filter_map
    (fun (v, eid) ->
      if Graph.is_user g v && exclude.vertex_ok v && exclude.edge_ok eid then
        match Channel.make g params [ src; v ] with
        | Ok c ->
            Tm.Counter.incr c_channels_built;
            Some (v, c)
        | Error _ -> None
      else None)
    (Graph.neighbors g src)

let sssp ?targets ?budget g params ~capacity ~exclude ~src =
  Tm.Counter.incr c_sssp_runs;
  let admit v =
    exclude.vertex_ok v
    && if Graph.is_user g v then v <> src else Capacity.can_relay capacity v
  in
  let expand v = Graph.is_switch g v in
  Paths.dijkstra g ~source:src ~weight:(edge_weight params) ~admit ~expand
    ~edge_ok:exclude.edge_ok ?targets ?budget ()

let channel_from_result g params result ~dst =
  match Paths.extract_path result ~target:dst with
  | None -> None
  | Some path -> begin
      match Channel.make g params path with
      | Ok c ->
          Tm.Counter.incr c_channels_built;
          Some c
      | Error _ -> None
    end

let best_channel ?(exclude = no_exclusion) ?budget g params ~capacity ~src ~dst
    =
  check_user g src;
  check_user g dst;
  if src = dst then invalid_arg "Routing.best_channel: src = dst";
  if params.Params.q = 0. then
    List.assoc_opt dst (direct_only g params ~exclude ~src)
  else
    (* A point query: let Dijkstra stop once [dst] settles instead of
       settling the whole graph. *)
    channel_from_result g params
      (sssp ~targets:[ dst ] ?budget g params ~capacity ~exclude ~src)
      ~dst

let best_channels_from ?(exclude = no_exclusion) ?budget g params ~capacity
    ~src =
  check_user g src;
  Tm.Counter.incr c_enumerations;
  if params.Params.q = 0. then
    List.sort compare (direct_only g params ~exclude ~src)
  else begin
    let result = sssp ?budget g params ~capacity ~exclude ~src in
    Graph.users g
    |> List.filter_map (fun u ->
           if u = src then None
           else
             match channel_from_result g params result ~dst:u with
             | None -> None
             | Some c -> Some (u, c))
  end

let best_channels_between ?(exclude = no_exclusion) ?budget g params
    ~capacity ~sources ~targets =
  List.iter (check_user g) sources;
  List.iter (check_user g) targets;
  if List.exists (fun t -> List.mem t sources) targets then
    invalid_arg "Routing.best_channels_between: sources and targets overlap";
  Tm.Counter.incr c_enumerations;
  match sources with
  | [] -> []
  | _ when params.Params.q = 0. ->
      List.concat_map
        (fun src ->
          List.sort compare (direct_only g params ~exclude ~src)
          |> List.filter (fun (v, _) -> List.mem v targets))
        sources
  | source :: more ->
      Tm.Counter.incr c_sssp_runs;
      (* Only switches relay; of the users, only targets may be entered,
         and only as endpoints. *)
      let admit v =
        exclude.vertex_ok v
        &&
        if Graph.is_user g v then List.mem v targets
        else Capacity.can_relay capacity v
      in
      let result =
        Paths.dijkstra g ~source ~sources:more ~weight:(edge_weight params)
          ~admit
          ~expand:(Graph.is_switch g)
          ~edge_ok:exclude.edge_ok ~targets ?budget ()
      in
      List.filter_map
        (fun t ->
          Option.map
            (fun c -> (t, c))
            (channel_from_result g params result ~dst:t))
        targets

type channel_oracle =
  exclude:exclusion ->
  budget:Qnet_overload.Budget.t option ->
  capacity:Capacity.t ->
  src:int ->
  dst:int ->
  Channel.t option

let flat_oracle g params ~exclude ~budget ~capacity ~src ~dst =
  best_channel ~exclude ?budget g params ~capacity ~src ~dst

let all_pairs_best ?exclude ?budget g params ~capacity ~users =
  let users = List.sort_uniq compare users in
  List.concat_map
    (fun src ->
      best_channels_from ?exclude ?budget g params ~capacity ~src
      |> List.filter_map (fun (dst, c) ->
             (* Keep each unordered pair once. *)
             if List.mem dst users && src < dst then Some c else None))
    users
