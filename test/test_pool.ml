(* Unit tests for Qnet_util.Pool: the domain pool's scheduling must
   never leak into results — serial and parallel runs agree exactly —
   and misuse (nesting, use after shutdown) fails loudly. *)

module Pool = Qnet_util.Pool
module Prng = Qnet_util.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_create_bounds () =
  Alcotest.check_raises "jobs 0"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0));
  check_bool "recommended >= 1" true (Pool.recommended_jobs () >= 1);
  let p = Pool.create ~jobs:3 in
  check_int "jobs" 3 (Pool.jobs p);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *)

let test_map_matches_serial () =
  let f i = (i * i) + 7 in
  let expected = Array.init 1000 f in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let got = Pool.parallel_map p 1000 f in
          check_bool
            (Printf.sprintf "map identical at jobs=%d" jobs)
            true
            (got = expected);
          (* Odd chunk sizes change scheduling only. *)
          let got = Pool.parallel_map p ~chunk:7 1000 f in
          check_bool
            (Printf.sprintf "map identical at jobs=%d chunk=7" jobs)
            true
            (got = expected)))
    [ 1; 2; 3; 4 ]

let test_empty_and_tiny () =
  Pool.with_pool ~jobs:4 (fun p ->
      check_int "empty map" 0 (Array.length (Pool.parallel_map p 0 Fun.id));
      Pool.parallel_for p 0 (fun _ -> Alcotest.fail "task ran for n = 0");
      (* Fewer tasks than workers. *)
      check_bool "n < jobs" true
        (Pool.parallel_map p 2 string_of_int = [| "0"; "1" |]))

let test_for_covers_every_index () =
  Pool.with_pool ~jobs:4 (fun p ->
      let hits = Array.make 257 0 in
      (* Each slot is written by exactly one task, so no race. *)
      Pool.parallel_for p ~chunk:3 257 (fun i -> hits.(i) <- hits.(i) + 1);
      check_bool "each index exactly once" true
        (Array.for_all (fun c -> c = 1) hits))

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          (match Pool.parallel_for p 100 (fun i -> if i = 41 then raise (Boom i)) with
          | () -> Alcotest.fail "expected Boom"
          | exception Boom 41 -> ());
          (* The pool survives a failed region. *)
          check_bool "usable after failure" true
            (Pool.parallel_map p 5 Fun.id = [| 0; 1; 2; 3; 4 |])))
    [ 1; 4 ]

let test_nested_rejected () =
  Pool.with_pool ~jobs:2 (fun p ->
      let saw_reject = ref false in
      Pool.parallel_for p 4 (fun _ ->
          match Pool.parallel_for p 2 ignore with
          | () -> ()
          | exception Invalid_argument _ -> saw_reject := true);
      check_bool "nested region rejected" true !saw_reject)

let test_use_after_shutdown () =
  let p = Pool.create ~jobs:2 in
  Pool.shutdown p;
  match Pool.parallel_for p 3 ignore with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_in_parallel_region () =
  check_bool "outside any region" false (Pool.in_parallel_region ());
  Pool.with_pool ~jobs:2 (fun p ->
      let inside = Array.make 8 false in
      Pool.parallel_for p 8 (fun i -> inside.(i) <- Pool.in_parallel_region ());
      check_bool "flagged inside region" true (Array.for_all Fun.id inside));
  (* The serial fast path flags the region too, so a jobs=1 pool still
     rejects nesting the same way. *)
  Pool.with_pool ~jobs:1 (fun p ->
      let inside = ref false in
      Pool.parallel_for p 1 (fun _ -> inside := Pool.in_parallel_region ());
      check_bool "flagged on serial fast path" true !inside);
  check_bool "cleared after region" false (Pool.in_parallel_region ())

let test_split_seeds_deterministic () =
  let seeds1 = Pool.split_seeds (Prng.create 42) 8 in
  let seeds2 = Pool.split_seeds (Prng.create 42) 8 in
  check_int "count" 8 (Array.length seeds1);
  Array.iteri
    (fun i rng1 ->
      let a = Prng.next_int64 rng1 and b = Prng.next_int64 seeds2.(i) in
      check_bool (Printf.sprintf "seed %d reproducible" i) true (a = b))
    seeds1;
  (* Distinct tasks get distinct streams. *)
  let seeds = Pool.split_seeds (Prng.create 42) 8 in
  let draws = Array.map Prng.next_int64 seeds in
  let distinct =
    Array.to_list draws |> List.sort_uniq compare |> List.length
  in
  check_int "streams distinct" 8 distinct

let test_randomized_work_independent_of_jobs () =
  (* A Monte-Carlo-shaped loop: per-task rngs drawn up front, so sums
     agree bitwise at every pool size. *)
  let run jobs =
    let rngs = Pool.split_seeds (Prng.create 7) 64 in
    Pool.with_pool ~jobs (fun p ->
        Pool.parallel_map p 64 (fun i -> Prng.float rngs.(i) 1.))
  in
  let base = run 1 in
  List.iter
    (fun jobs ->
      check_bool
        (Printf.sprintf "floats identical at jobs=%d" jobs)
        true
        (run jobs = base))
    [ 2; 4 ]

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "create bounds" `Quick test_create_bounds;
          Alcotest.test_case "map matches serial" `Quick
            test_map_matches_serial;
          Alcotest.test_case "empty and tiny" `Quick test_empty_and_tiny;
          Alcotest.test_case "for covers every index" `Quick
            test_for_covers_every_index;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested rejected" `Quick test_nested_rejected;
          Alcotest.test_case "use after shutdown" `Quick
            test_use_after_shutdown;
          Alcotest.test_case "in_parallel_region" `Quick
            test_in_parallel_region;
          Alcotest.test_case "split_seeds deterministic" `Quick
            test_split_seeds_deterministic;
          Alcotest.test_case "randomized work independent of jobs" `Quick
            test_randomized_work_independent_of_jobs;
        ] );
    ]
