type dijkstra_result = { dist : float array; prev : int array }

(* Work counters for the shortest-path hot path (no-ops unless
   telemetry is enabled).  Every solver funnels through here, so these
   are the substrate-level cost measure of a routing run. *)
module Tm = Qnet_telemetry.Metrics

let c_runs = Tm.counter "graph.dijkstra.runs"
let c_pushes = Tm.counter "graph.dijkstra.heap_pushes"
let c_pops = Tm.counter "graph.dijkstra.heap_pops"
let c_relaxations = Tm.counter "graph.dijkstra.edge_relaxations"
let c_improvements = Tm.counter "graph.dijkstra.dist_improvements"

(* Each domain reuses one scratch heap across its SSSP runs (the
   routing layer performs thousands per solve — see
   [core.routing.sssp_runs]).  The take/put-back dance keeps a nested
   run, should a [weight]/[admit] callback ever trigger one, on a
   private freshly-allocated heap. *)
let scratch_heap : int Binary_heap.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_scratch_heap n f =
  let cell = Domain.DLS.get scratch_heap in
  match !cell with
  | Some heap ->
      cell := None;
      Binary_heap.reset heap;
      Fun.protect ~finally:(fun () -> cell := Some heap) (fun () -> f heap)
  | None ->
      let heap = Binary_heap.create ~capacity:(n + 1) () in
      Fun.protect ~finally:(fun () -> cell := Some heap) (fun () -> f heap)

(* Per-vertex search state in [dijkstra]: one byte each, so a run
   allocates n bytes of marks rather than an n-word bool array. *)
let open_ = '\000'
let open_target = '\001'
let settled = '\002'

let dijkstra g ~source ?(sources = []) ~weight ?(admit = fun _ -> true)
    ?(expand = fun _ -> true) ?(edge_ok = fun _ -> true) ?(targets = [])
    ?budget () =
  let n = Graph.vertex_count g in
  let in_range v = v >= 0 && v < n in
  if not (in_range source && List.for_all in_range sources) then
    invalid_arg "Paths.dijkstra: bad source";
  if not (List.for_all in_range targets) then
    invalid_arg "Paths.dijkstra: bad target";
  (* Bind the fuel charge once so the unbudgeted hot path stays a
     single closure call away from free. *)
  let charge =
    match budget with
    | None -> Fun.id
    | Some b -> fun () -> Qnet_overload.Budget.tick b
  in
  Tm.Counter.incr c_runs;
  let dist = Array.make n infinity in
  let prev = Array.make n (-1) in
  let state = Bytes.make n open_ in
  (* Targets still to settle; the run stops when this reaches zero.
     Without targets it never does, and the whole graph settles. *)
  let pending = ref 0 in
  List.iter
    (fun t ->
      if Bytes.get state t = open_ then begin
        Bytes.set state t open_target;
        incr pending
      end)
    targets;
  let off = Graph.csr_offsets g and pairs = Graph.csr_pairs g in
  with_scratch_heap n (fun heap ->
      let start s =
        if dist.(s) > 0. then begin
          dist.(s) <- 0.;
          Binary_heap.push heap 0. s;
          Tm.Counter.incr c_pushes
        end
      in
      start source;
      List.iter start sources;
      let running = ref true in
      while !running do
        match Binary_heap.pop_min heap with
        | None -> running := false
        | Some (d, u) ->
            charge ();
            Tm.Counter.incr c_pops;
            let mark = Bytes.get state u in
            if mark <> settled && d <= dist.(u) then begin
              Bytes.set state u settled;
              (* The popped distance is final, so the last target's
                 settling ends the query — no need to drain the
                 frontier.  Sources (no predecessor) always expand. *)
              if mark = open_target then begin
                decr pending;
                if !pending = 0 then running := false
              end;
              if !running && (prev.(u) < 0 || expand u) then
                for k = off.(u) to off.(u + 1) - 1 do
                  let v = pairs.(2 * k) in
                  Tm.Counter.incr c_relaxations;
                  if
                    Bytes.get state v <> settled
                    && admit v
                    && edge_ok pairs.((2 * k) + 1)
                  then begin
                    let e = Graph.edge g pairs.((2 * k) + 1) in
                    let w = weight e in
                    if w < 0. then
                      invalid_arg "Paths.dijkstra: negative edge weight";
                    let cand = d +. w in
                    if cand < dist.(v) then begin
                      dist.(v) <- cand;
                      prev.(v) <- u;
                      Tm.Counter.incr c_improvements;
                      Binary_heap.push heap cand v;
                      Tm.Counter.incr c_pushes
                    end
                  end
                done
            end
      done);
  { dist; prev }

let extract_path { dist; prev } ~target =
  if dist.(target) = infinity then None
  else begin
    let rec walk v acc =
      if prev.(v) < 0 then v :: acc else walk prev.(v) (v :: acc)
    in
    Some (walk target [])
  end

let shortest_path g ~source ~target ~weight ?admit ?expand ?edge_ok ?budget () =
  let result =
    dijkstra g ~source ~weight ?admit ?expand ?edge_ok ~targets:[ target ]
      ?budget ()
  in
  match extract_path result ~target with
  | None -> None
  | Some path -> Some (path, result.dist.(target))

let bfs_hops g ~source =
  let n = Graph.vertex_count g in
  if source < 0 || source >= n then invalid_arg "Paths.bfs_hops: bad source";
  let hops = Array.make n (-1) in
  let off = Graph.csr_offsets g and pairs = Graph.csr_pairs g in
  let q = Queue.create () in
  hops.(source) <- 0;
  Queue.add source q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    for k = off.(u) to off.(u + 1) - 1 do
      let v = pairs.(2 * k) in
      if hops.(v) < 0 then begin
        hops.(v) <- hops.(u) + 1;
        Queue.add v q
      end
    done
  done;
  hops

let bfs_order g ~source =
  let n = Graph.vertex_count g in
  if source < 0 || source >= n then invalid_arg "Paths.bfs_order: bad source";
  let seen = Array.make n false in
  let off = Graph.csr_offsets g and pairs = Graph.csr_pairs g in
  let q = Queue.create () in
  let order = ref [] in
  seen.(source) <- true;
  Queue.add source q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    order := u :: !order;
    for k = off.(u) to off.(u + 1) - 1 do
      let v = pairs.(2 * k) in
      if not seen.(v) then begin
        seen.(v) <- true;
        Queue.add v q
      end
    done
  done;
  List.rev !order

let connected_components g =
  let n = Graph.vertex_count g in
  let uf = Union_find.create n in
  Graph.iter_edges g (fun e -> ignore (Union_find.union uf e.a e.b));
  Union_find.groups uf

let is_connected g =
  let n = Graph.vertex_count g in
  n <= 1 || List.length (connected_components g) = 1

let users_connected g =
  match Graph.users g with
  | [] | [ _ ] -> true
  | first :: rest ->
      let hops = bfs_hops g ~source:first in
      List.for_all (fun u -> hops.(u) >= 0) rest

let path_is_valid g path =
  let rec distinct seen = function
    | [] -> true
    | v :: rest ->
        if List.mem v seen then false else distinct (v :: seen) rest
  in
  let rec edges_ok = function
    | [] | [ _ ] -> true
    | u :: (v :: _ as rest) -> Graph.has_edge g u v && edges_ok rest
  in
  match path with
  | [] -> false
  | _ -> distinct [] path && edges_ok path

let fold_path_edges g path ~init ~f =
  let rec go acc = function
    | [] | [ _ ] -> acc
    | u :: (v :: _ as rest) -> begin
        match Graph.find_edge g u v with
        | None -> invalid_arg "Paths: consecutive vertices not adjacent"
        | Some eid -> go (f acc (Graph.edge g eid)) rest
      end
  in
  go init path

let path_length g path =
  fold_path_edges g path ~init:0. ~f:(fun acc e -> acc +. e.length)

let path_edges g path =
  List.rev (fold_path_edges g path ~init:[] ~f:(fun acc e -> e.eid :: acc))
