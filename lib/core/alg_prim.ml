module Graph = Qnet_graph.Graph
module Logprob = Qnet_util.Logprob
module Prng = Qnet_util.Prng

let solve ?start ?rng ?budget g params =
  let users = Graph.users g in
  match users with
  | [] | [ _ ] -> Some (Ent_tree.of_channels [])
  | first :: _ ->
      let start =
        match (start, rng) with
        | Some s, _ ->
            if not (Graph.is_user g s) then
              invalid_arg "Alg_prim.solve: start is not a user";
            s
        | None, Some rng -> Prng.pick rng (Array.of_list users)
        | None, None -> first
      in
      let capacity = Capacity.of_graph g in
      let inside = Hashtbl.create (List.length users) in
      Hashtbl.replace inside start ();
      let rec grow acc = function
        | [] -> Some (Ent_tree.of_channels (List.rev acc))
        | outside_users -> (
            match
              Multi_group.best_attachment ?budget g params ~capacity ~inside
                ~outside_users
            with
            | None -> None
            | Some c when Logprob.is_impossible c.rate -> None
            | Some c ->
                Capacity.consume_channel capacity c.path;
                let fresh = if Hashtbl.mem inside c.src then c.dst else c.src in
                Hashtbl.replace inside fresh ();
                grow (c :: acc) (List.filter (( <> ) fresh) outside_users))
      in
      grow [] (List.filter (( <> ) start) users)
