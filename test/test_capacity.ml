(* Unit tests for Qnet_core.Capacity. *)

module Graph = Qnet_graph.Graph
module Capacity = Qnet_core.Capacity

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* u0 - s2 - s3 - u1, a simple relay chain. *)
let fixture () =
  let b = Graph.Builder.create () in
  let u0 = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x:0. ~y:0. in
  let u1 = Graph.Builder.add_vertex b ~kind:Graph.User ~qubits:0 ~x:3. ~y:0. in
  let s2 = Graph.Builder.add_vertex b ~kind:Graph.Switch ~qubits:4 ~x:1. ~y:0. in
  let s3 = Graph.Builder.add_vertex b ~kind:Graph.Switch ~qubits:2 ~x:2. ~y:0. in
  ignore (Graph.Builder.add_edge b u0 s2 1.);
  ignore (Graph.Builder.add_edge b s2 s3 1.);
  ignore (Graph.Builder.add_edge b s3 u1 1.);
  (Graph.Builder.freeze b, u0, u1, s2, s3)

let test_initial_state () =
  let g, u0, _, s2, s3 = fixture () in
  let c = Capacity.of_graph g in
  check_int "switch residual" 4 (Capacity.remaining c s2);
  check_int "small switch residual" 2 (Capacity.remaining c s3);
  check_int "user unlimited" max_int (Capacity.remaining c u0);
  check_bool "switch can relay" true (Capacity.can_relay c s2);
  check_bool "user can always relay" true (Capacity.can_relay c u0);
  check_int "nothing used" 0 (Capacity.used c s2);
  Alcotest.(check (list int)) "no overcommit" [] (Capacity.overcommitted c)

let test_consume_release () =
  let g, u0, u1, s2, s3 = fixture () in
  let c = Capacity.of_graph g in
  let path = [ u0; s2; s3; u1 ] in
  Capacity.consume_channel c path;
  check_int "s2 deducted" 2 (Capacity.remaining c s2);
  check_int "s3 exhausted" 0 (Capacity.remaining c s3);
  check_bool "s3 cannot relay" false (Capacity.can_relay c s3);
  check_int "s3 usage" 2 (Capacity.used c s3);
  Capacity.release_channel c path;
  check_int "s2 refunded" 4 (Capacity.remaining c s2);
  check_int "s3 refunded" 2 (Capacity.remaining c s3)

let test_consume_requires_capacity () =
  let g, u0, u1, s2, s3 = fixture () in
  let c = Capacity.of_graph g in
  Capacity.consume_channel c [ u0; s2; s3; u1 ];
  Alcotest.check_raises "second channel over s3"
    (Invalid_argument "Capacity.consume_channel: insufficient qubits")
    (fun () -> Capacity.consume_channel c [ u0; s2; s3; u1 ]);
  (* The failed attempt must not have deducted anything. *)
  check_int "s2 untouched by failure" 2 (Capacity.remaining c s2)

let test_direct_channel_consumes_nothing () =
  let g, u0, u1, _, _ = fixture () in
  let c = Capacity.of_graph g in
  (* A hypothetical direct channel [u0; u1] has no interior. *)
  Capacity.consume_channel c [ u0; u1 ];
  Alcotest.(check (list int)) "nothing overcommitted" [] (Capacity.overcommitted c)

let test_copy_isolation () =
  let g, u0, u1, s2, s3 = fixture () in
  let c = Capacity.of_graph g in
  let c' = Capacity.copy c in
  Capacity.consume_channel c [ u0; s2; s3; u1 ];
  check_int "original deducted" 2 (Capacity.remaining c s2);
  check_int "copy untouched" 4 (Capacity.remaining c' s2)

let () =
  Alcotest.run "capacity"
    [
      ( "state",
        [
          Alcotest.test_case "initial" `Quick test_initial_state;
          Alcotest.test_case "consume/release" `Quick test_consume_release;
          Alcotest.test_case "insufficient" `Quick test_consume_requires_capacity;
          Alcotest.test_case "direct channel" `Quick
            test_direct_channel_consumes_nothing;
          Alcotest.test_case "copy" `Quick test_copy_isolation;
        ] );
    ]
