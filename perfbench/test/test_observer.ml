(* Observer-effect checks for the serving benchmark: on every workload
   (scaled down to a few hundred requests), the report is byte-identical
   without the timing wrapper, with it, with each checkpoint sink, and
   with telemetry on. *)

open Perfbench
module S = Serving
module Metrics = Qnet_telemetry.Metrics

let dir =
  let d = Filename.concat (Sys.getcwd ()) "observer-files" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let requests = function
  | S.Flat_serve -> 300
  | S.Overload_burst -> 200
  | S.Chaos_checkpoint -> 150

let check kind =
  let inp = S.setup ~requests:(requests kind) kind ~seed:7 in
  let bare = S.serve ~cuts:S.No_cuts inp in
  let t = S.timing () in
  let variants =
    [
      ("wrapped", fun () -> S.serve ~timing:t ~cuts:S.No_cuts inp);
      ("durable", fun () -> S.serve ~timing:t ~cuts:(S.Durable dir) inp);
      ("noop sink", fun () -> S.serve ~cuts:S.Noop inp);
      ("encode sink", fun () -> S.serve ~cuts:(S.Encode (S.samples 1024)) inp);
      ( "capture",
        fun () -> S.serve ~capture:{ S.every = 3; seen = 0; kept = [] } ~cuts:S.No_cuts inp );
      ( "traced",
        fun () ->
          Metrics.reset ();
          Metrics.set_enabled true;
          let p = S.serve ~timing:(S.timing ()) ~cuts:(S.Durable dir) inp in
          Metrics.set_enabled false;
          p );
    ]
  in
  let failures =
    List.filter_map
      (fun (label, f) ->
        let p = f () in
        if S.same p bare && S.consistent p then None
        else Some (Printf.sprintf "%s: %s report differs" (S.name kind) label))
      variants
  in
  let _, _, invalid = S.verify inp bare in
  let failures =
    if invalid = 0 then failures
    else Printf.sprintf "%s: %d invalid trees" (S.name kind) invalid :: failures
  in
  if t.decide.n = 0 || t.cut.n = 0 then
    Printf.sprintf "%s: wrapper or sink recorded nothing" (S.name kind) :: failures
  else failures

let () =
  match List.concat_map (fun (_, k) -> check k) S.kinds with
  | [] -> print_endline "observer-effect checks: all reports identical"
  | fs ->
      List.iter prerr_endline fs;
      exit 1
