type result = { tree_edges : Graph.edge list; weight : float }

(* Connectivity of [vertices] using only [edges], via a union-find over
   the dense vertex ids. *)
let connects n edges vertices =
  let uf = Union_find.create n in
  List.iter (fun (e : Graph.edge) -> ignore (Union_find.union uf e.a e.b)) edges;
  Union_find.all_same uf vertices

let spans edges vertices =
  match vertices with
  | [] -> true
  | v :: _ ->
      let top =
        List.fold_left
          (fun acc (e : Graph.edge) -> max acc (max e.a e.b))
          v edges
      in
      let top = List.fold_left max top vertices in
      connects (top + 1) edges vertices

let tree_degree edges v =
  List.fold_left
    (fun acc (e : Graph.edge) ->
      if e.a = v || e.b = v then acc + 1 else acc)
    0 edges

module Edge_set = Set.Make (Int)

let kmb g ~terminals ~weight =
  (match terminals with
  | [] -> invalid_arg "Steiner.kmb: no terminals"
  | _ -> ());
  List.iter (fun t -> ignore (Graph.vertex g t)) terminals;
  match terminals with
  | [ _ ] -> Some { tree_edges = []; weight = 0. }
  | _ ->
      let terminals = List.sort_uniq compare terminals in
      (* Step 1: shortest paths from every terminal. *)
      let sssp =
        List.map
          (fun t -> (t, Paths.dijkstra g ~source:t ~weight ()))
          terminals
      in
      let reachable =
        List.for_all
          (fun (_, (r : Paths.dijkstra_result)) ->
            List.for_all (fun t -> r.dist.(t) < infinity) terminals)
          sssp
      in
      if not reachable then None
      else begin
        (* Step 2: MST of the metric closure via Prim over terminals. *)
        let dist_of t =
          let r = List.assoc t sssp in
          r
        in
        let in_tree = Hashtbl.create 8 in
        let first = List.hd terminals in
        Hashtbl.replace in_tree first ();
        let closure_edges = ref [] in
        for _ = 2 to List.length terminals do
          let best = ref None in
          List.iter
            (fun src ->
              if Hashtbl.mem in_tree src then
                let r = dist_of src in
                List.iter
                  (fun dst ->
                    if not (Hashtbl.mem in_tree dst) then
                      match !best with
                      | Some (d, _, _) when d <= r.Paths.dist.(dst) -> ()
                      | _ -> best := Some (r.Paths.dist.(dst), src, dst))
                  terminals)
            terminals;
          match !best with
          | None -> ()
          | Some (_, src, dst) ->
              Hashtbl.replace in_tree dst ();
              closure_edges := (src, dst) :: !closure_edges
        done;
        (* Step 3: expand closure edges into real paths, union edges. *)
        let expanded =
          List.fold_left
            (fun acc (src, dst) ->
              let r = dist_of src in
              match Paths.extract_path r ~target:dst with
              | None -> acc
              | Some path ->
                  List.fold_left
                    (fun acc eid -> Edge_set.add eid acc)
                    acc (Paths.path_edges g path))
            Edge_set.empty !closure_edges
        in
        (* Step 4: MST of the expanded subgraph (Kruskal restricted to
           the expanded edges). *)
        let sub_edges =
          Edge_set.elements expanded
          |> List.map (Graph.edge g)
          |> List.sort (fun e1 e2 -> Float.compare (weight e1) (weight e2))
        in
        let uf = Union_find.create (Graph.vertex_count g) in
        let tree =
          List.filter
            (fun (e : Graph.edge) -> Union_find.union uf e.a e.b)
            sub_edges
        in
        (* Step 5: iteratively prune non-terminal leaves. *)
        let is_terminal = Hashtbl.create 8 in
        List.iter (fun t -> Hashtbl.replace is_terminal t ()) terminals;
        let rec prune tree =
          let leafy e v =
            tree_degree tree v = 1 && not (Hashtbl.mem is_terminal v)
            && (e.Graph.a = v || e.Graph.b = v)
          in
          let doomed =
            List.filter (fun e -> leafy e e.Graph.a || leafy e e.Graph.b) tree
          in
          if doomed = [] then tree
          else
            prune
              (List.filter
                 (fun e -> not (List.memq e doomed))
                 tree)
        in
        let tree = prune tree in
        Some
          {
            tree_edges = tree;
            weight = List.fold_left (fun acc e -> acc +. weight e) 0. tree;
          }
      end
