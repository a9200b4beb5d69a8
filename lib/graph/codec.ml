module Sexp = Qnet_util.Sexp

let kind_to_string = function Graph.User -> "user" | Graph.Switch -> "switch"

let kind_of_string = function
  | "user" -> Ok Graph.User
  | "switch" -> Ok Graph.Switch
  | other -> Error (Printf.sprintf "unknown vertex kind %S" other)

let graph_to_sexp g =
  let vertices = ref [] in
  Graph.iter_vertices g (fun v ->
      vertices :=
        Sexp.list
          [
            Sexp.int v.Graph.id;
            Sexp.atom (kind_to_string v.Graph.kind);
            Sexp.int v.Graph.qubits;
            Sexp.float v.Graph.x;
            Sexp.float v.Graph.y;
          ]
        :: !vertices);
  let edges = ref [] in
  Graph.iter_edges g (fun e ->
      edges :=
        Sexp.list
          [ Sexp.int e.Graph.a; Sexp.int e.Graph.b; Sexp.float e.Graph.length ]
        :: !edges);
  Sexp.list
    [
      Sexp.atom "qnet-graph";
      Sexp.list [ Sexp.atom "version"; Sexp.int 1 ];
      Sexp.list (Sexp.atom "vertices" :: List.rev !vertices);
      Sexp.list (Sexp.atom "edges" :: List.rev !edges);
    ]

let ( let* ) = Result.bind

let graph_of_sexp sexp =
  let* () =
    match sexp with
    | Sexp.List (Sexp.Atom "qnet-graph" :: _) -> Ok ()
    | _ -> Error "not a qnet-graph document"
  in
  let* version = Sexp.field sexp "version" in
  let* version = Sexp.to_int version in
  let* () =
    if version = 1 then Ok ()
    else Error (Printf.sprintf "unsupported version %d" version)
  in
  let* vertices = Sexp.field sexp "vertices" in
  let* edges = Sexp.field sexp "edges" in
  let as_items name = function
    | Sexp.List items -> Ok items
    | Sexp.Atom _ ->
        (* A single vertex/edge unwraps to its own list; re-wrap. *)
        Error (Printf.sprintf "%s section malformed" name)
  in
  (* field unwraps singletons: re-normalise both shapes. *)
  let normalise section =
    match section with
    | Sexp.List (Sexp.Atom _ :: _) -> [ section ] (* one row unwrapped *)
    | Sexp.List _ -> (
        match as_items "section" section with Ok l -> l | Error _ -> [])
    | Sexp.Atom _ -> []
  in
  let rows section =
    match section with
    | Sexp.List [] -> []
    | Sexp.List (Sexp.List _ :: _) -> normalise section
    | _ -> [ section ]
  in
  let vertex_rows = rows vertices in
  let edge_rows = rows edges in
  let b = Graph.Builder.create () in
  let* () =
    List.fold_left
      (fun acc row ->
        let* () = acc in
        match row with
        | Sexp.List [ id; kind; qubits; x; y ] ->
            let* id = Sexp.to_int id in
            let* kind =
              match kind with
              | Sexp.Atom k -> kind_of_string k
              | Sexp.List _ -> Error "vertex kind must be an atom"
            in
            let* qubits = Sexp.to_int qubits in
            let* x = Sexp.to_float x in
            let* y = Sexp.to_float y in
            let assigned =
              try Ok (Graph.Builder.add_vertex b ~kind ~qubits ~x ~y)
              with Invalid_argument msg -> Error msg
            in
            let* assigned = assigned in
            if assigned <> id then
              Error
                (Printf.sprintf "vertex ids must be dense: expected %d, got %d"
                   assigned id)
            else Ok ()
        | _ -> Error "malformed vertex row")
      (Ok ()) vertex_rows
  in
  let* () =
    List.fold_left
      (fun acc row ->
        let* () = acc in
        match row with
        | Sexp.List [ a; bb; length ] ->
            let* a = Sexp.to_int a in
            let* bb = Sexp.to_int bb in
            let* length = Sexp.to_float length in
            (try
               ignore (Graph.Builder.add_edge b a bb length);
               Ok ()
             with Invalid_argument msg -> Error msg)
        | _ -> Error "malformed edge row")
      (Ok ()) edge_rows
  in
  Ok (Graph.Builder.freeze b)

let save_graph path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Sexp.to_string_hum (graph_to_sexp g));
      output_char oc '\n')

let load_graph path =
  match Qnet_util.Io.read_file path with
  | Error msg -> Error msg
  | Ok content -> (
      match Sexp.of_string content with
      | Error msg -> Error (path ^ ": parse error: " ^ msg)
      | Ok sexp ->
          Result.map_error (fun msg -> path ^ ": " ^ msg) (graph_of_sexp sexp))
