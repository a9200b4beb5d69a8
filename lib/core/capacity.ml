module Graph = Qnet_graph.Graph

(* [quota] is the provisioned qubit budget per switch — it starts as the
   graph's static qubit counts but live re-provisioning (switch
   upgrades/downgrades mid-run) can move it, which is why [used] must be
   computed against the quota rather than the immutable graph. *)
type t = { graph : Graph.t; quota : int array; residual : int array }

let of_graph graph =
  let n = Graph.vertex_count graph in
  let quota =
    Array.init n (fun v ->
        if Graph.is_switch graph v then Graph.qubits graph v else 0)
  in
  { graph; quota; residual = Array.copy quota }

let copy t =
  { t with quota = Array.copy t.quota; residual = Array.copy t.residual }

let remaining t v =
  if Graph.is_user t.graph v then max_int else t.residual.(v)

let can_relay t v = Graph.is_user t.graph v || t.residual.(v) >= 2

let interior path =
  match path with
  | [] | [ _ ] -> []
  | _ :: rest ->
      let rec drop_last = function
        | [] | [ _ ] -> []
        | x :: tl -> x :: drop_last tl
      in
      drop_last rest

let consume_channel t path =
  let switches =
    List.filter (fun v -> Graph.is_switch t.graph v) (interior path)
  in
  if List.exists (fun v -> t.residual.(v) < 2) switches then
    invalid_arg "Capacity.consume_channel: insufficient qubits";
  List.iter (fun v -> t.residual.(v) <- t.residual.(v) - 2) switches

let release_channel t path =
  List.iter
    (fun v ->
      if Graph.is_switch t.graph v then t.residual.(v) <- t.residual.(v) + 2)
    (interior path)

let used t v =
  if Graph.is_user t.graph v then 0 else t.quota.(v) - t.residual.(v)

let quota t v = t.quota.(v)

(* Live re-provisioning: move switch [v]'s qubit budget to [q], shifting
   the residual by the same amount so in-flight consumption is
   preserved.  Shrinking below current usage legitimately drives the
   residual negative — the caller (the online engine) must recover
   enough leases to restore it before admitting new work. *)
let provision t v q =
  if not (Graph.is_switch t.graph v) then
    invalid_arg "Capacity.provision: not a switch";
  if q < 0 then invalid_arg "Capacity.provision: negative quota";
  let shift = q - t.quota.(v) in
  t.quota.(v) <- q;
  t.residual.(v) <- t.residual.(v) + shift

let overcommitted t =
  let bad = ref [] in
  for v = Array.length t.residual - 1 downto 0 do
    if t.residual.(v) < 0 then bad := v :: !bad
  done;
  !bad
