module Graph = Qnet_graph.Graph
module Paths = Qnet_graph.Paths
module Routing = Qnet_core.Routing
module Channel = Qnet_core.Channel
module Capacity = Qnet_core.Capacity
module Multi_group = Qnet_core.Multi_group
module Params = Qnet_core.Params
module Tm = Qnet_telemetry.Metrics

let c_queries = Tm.counter "hier.queries"
let c_local = Tm.counter "hier.local"
let c_corridor_hits = Tm.counter "hier.corridor_hits"
let c_fallbacks = Tm.counter "hier.fallbacks"

type t = {
  g : Graph.t;
  params : Params.t;
  part : Partition.t;
  skeleton : Skeleton.t;
  in_corridor : bool array;  (* region -> member of the current corridor *)
}

let create g params part =
  {
    g;
    params;
    part;
    skeleton = Skeleton.create g params part;
    in_corridor = Array.make part.Partition.count false;
  }

let graph t = t.g
let params t = t.params
let partition t = t.part
let skeleton t = t.skeleton

(* Exact search restricted to the corridor regions: Algorithm 1's
   admission rule (enter switches only while they can relay, never relay
   through users) plus the region membership test.  Identical weights,
   so inside the corridor the result is the true optimum. *)
let corridor_channel t ~exclude ~budget ~capacity ~src ~dst corridor =
  List.iter (fun r -> t.in_corridor.(r) <- true) corridor;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun r -> t.in_corridor.(r) <- false) corridor)
    (fun () ->
      let region_of = t.part.Partition.region_of in
      let admit v =
        t.in_corridor.(region_of.(v))
        && exclude.Routing.vertex_ok v
        &&
        if Graph.is_user t.g v then v <> src
        else Capacity.can_relay capacity v
      in
      let res =
        Paths.dijkstra t.g ~source:src
          ~weight:(Routing.edge_weight t.params)
          ~admit
          ~expand:(fun v -> Graph.is_switch t.g v)
          ~edge_ok:exclude.Routing.edge_ok ~targets:[ dst ] ?budget ()
      in
      match Paths.extract_path res ~target:dst with
      | None -> None
      | Some path -> (
          match Channel.make t.g t.params path with
          | Ok c -> Some c
          | Error _ -> None))

let best_channel ?(exclude = Routing.no_exclusion) ?budget t ~capacity ~src
    ~dst =
  if not (Graph.is_user t.g src && Graph.is_user t.g dst) then
    invalid_arg "Oracle.best_channel: endpoint is not a quantum user";
  if src = dst then invalid_arg "Oracle.best_channel: src = dst";
  if t.params.Params.q = 0. then
    (* Only direct fibers work: nothing to contract. *)
    Routing.best_channel ~exclude ?budget t.g t.params ~capacity ~src ~dst
  else begin
    Tm.Counter.incr c_queries;
    let region_of = t.part.Partition.region_of in
    let fallback () =
      Tm.Counter.incr c_fallbacks;
      Routing.best_channel ~exclude ?budget t.g t.params ~capacity ~src ~dst
    in
    let corridor =
      if region_of.(src) = region_of.(dst) then begin
        Tm.Counter.incr c_local;
        Some [ region_of.(src) ]
      end
      else
        Skeleton.route t.skeleton ~exclude ~budget ~capacity ~src ~dst
    in
    match corridor with
    | None -> fallback ()
    | Some regions -> (
        match
          corridor_channel t ~exclude ~budget ~capacity ~src ~dst regions
        with
        | Some c ->
            Tm.Counter.incr c_corridor_hits;
            Some c
        | None -> fallback ())
  end

let channel_oracle t ~exclude ~budget ~capacity ~src ~dst =
  best_channel ~exclude ?budget t ~capacity ~src ~dst

let route_users ?exclude ?budget t ~capacity ~users =
  Multi_group.prim_for_users ?exclude ?budget ~oracle:(channel_oracle t) t.g
    t.params ~capacity ~users

let invalidate_switch t v =
  Skeleton.invalidate_region t.skeleton t.part.Partition.region_of.(v)

let invalidate_link t eid =
  let e = Graph.edge t.g eid in
  let ra = t.part.Partition.region_of.(e.Graph.a)
  and rb = t.part.Partition.region_of.(e.Graph.b) in
  Skeleton.invalidate_region t.skeleton ra;
  if rb <> ra then Skeleton.invalidate_region t.skeleton rb
