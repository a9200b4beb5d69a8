module Graph = Qnet_graph.Graph
module Paths = Qnet_graph.Paths
module Logprob = Qnet_util.Logprob

let edge_key (u, v) = if u <= v then (u, v) else (v, u)

(* One constrained shortest-path query from [src] (a user or a spur
   switch) to the user [dst]: banned edges and banned vertices come from
   Yen's deviation bookkeeping.  Returns a raw vertex path. *)
let constrained_path g params ~capacity ~src ~dst ~banned_edges
    ~banned_vertices =
  let weight (e : Graph.edge) =
    if Hashtbl.mem banned_edges (edge_key (e.a, e.b)) then infinity
    else Routing.edge_weight params e
  in
  let admit v =
    (not (Hashtbl.mem banned_vertices v))
    &&
    if Graph.is_user g v then v = dst else Capacity.can_relay capacity v
  in
  let expand v = Graph.is_switch g v in
  let result = Paths.dijkstra g ~source:src ~weight ~admit ~expand () in
  if result.Paths.dist.(dst) = infinity then None
  else Paths.extract_path result ~target:dst

(* q = 0 degenerates to "direct fiber or nothing" (cf. Routing), so the
   k-best list has at most one element. *)
let direct_or_nothing g params ~src ~dst =
  match Graph.find_edge g src dst with
  | None -> []
  | Some _ -> (
      match Channel.make g params [ src; dst ] with
      | Ok c -> [ c ]
      | Error _ -> [])

let compare_candidates (c1 : Channel.t) (c2 : Channel.t) =
  let by_rate = Logprob.compare_desc c1.rate c2.rate in
  if by_rate <> 0 then by_rate else compare c1.path c2.path

let k_best_channels g params ~capacity ~src ~dst ~k =
  if not (Graph.is_user g src && Graph.is_user g dst) then
    invalid_arg "Multipath.k_best_channels: endpoints must be users";
  if src = dst then invalid_arg "Multipath.k_best_channels: src = dst";
  if k < 1 then invalid_arg "Multipath.k_best_channels: k < 1";
  if params.Params.q = 0. then direct_or_nothing g params ~src ~dst
  else begin
    let fresh_bans () = (Hashtbl.create 8, Hashtbl.create 8) in
    let first_path =
      let banned_edges, banned_vertices = fresh_bans () in
      constrained_path g params ~capacity ~src ~dst ~banned_edges
        ~banned_vertices
    in
    match first_path with
    | None -> []
    | Some p0 ->
        (* Work on raw src->dst paths; build channels at the end. *)
        let accepted = ref [ p0 ] in
        let candidates = ref [] in
        let seen = Hashtbl.create 16 in
        Hashtbl.replace seen p0 ();
        let path_neg_log p =
          match Channel.make g params p with
          | Ok c -> Logprob.to_neg_log c.rate
          | Error _ -> infinity
        in
        let compare_paths p1 p2 =
          let c = Float.compare (path_neg_log p1) (path_neg_log p2) in
          if c <> 0 then c else compare p1 p2
        in
        let add_candidate p =
          if not (Hashtbl.mem seen p) then begin
            Hashtbl.replace seen p ();
            candidates := p :: !candidates
          end
        in
        let rec take_prefix n = function
          | [] -> []
          | _ when n = 0 -> []
          | x :: rest -> x :: take_prefix (n - 1) rest
        in
        let rec shares_root root p =
          match (root, p) with
          | [], _ -> true
          | x :: r', y :: p' -> x = y && shares_root r' p'
          | _, [] -> false
        in
        let rec rounds () =
          if List.length !accepted >= k then ()
          else begin
            let last = Array.of_list (List.hd !accepted) in
            for i = 0 to Array.length last - 2 do
              let spur = last.(i) in
              let root = take_prefix (i + 1) (Array.to_list last) in
              let banned_edges, banned_vertices = fresh_bans () in
              List.iter
                (fun p ->
                  if shares_root root p then
                    let arr = Array.of_list p in
                    if Array.length arr > i + 1 then
                      Hashtbl.replace banned_edges
                        (edge_key (arr.(i), arr.(i + 1)))
                        ())
                (!accepted @ !candidates);
              List.iteri
                (fun j v ->
                  if j < i then Hashtbl.replace banned_vertices v ())
                root;
              (match
                 constrained_path g params ~capacity ~src:spur ~dst
                   ~banned_edges ~banned_vertices
               with
              | None -> ()
              | Some tail ->
                  let full = root @ List.tl tail in
                  if Paths.path_is_valid g full then
                    match Channel.make g params full with
                    | Ok _ -> add_candidate full
                    | Error _ -> ())
            done;
            match List.sort compare_paths !candidates with
            | [] -> ()
            | best :: rest ->
                candidates := rest;
                accepted := best :: !accepted;
                rounds ()
          end
        in
        rounds ();
        List.filter_map
          (fun p ->
            match Channel.make g params p with Ok c -> Some c | Error _ -> None)
          !accepted
        |> List.sort compare_candidates
  end

let channels_vertex_disjoint (c1 : Channel.t) (c2 : Channel.t) =
  let s1 = Channel.interior_switches c1 in
  let s2 = Channel.interior_switches c2 in
  not (List.exists (fun v -> List.mem v s2) s1)
