module Engine = Qnet_online.Engine
module Table = Qnet_util.Table

(* Crash-recovery drill: run a workload to completion while cutting
   checkpoints through a real Checkpoint writer (cut, FILE.prev and
   write-ahead journal on disk), capture the byte-exact file set just
   before and just after every cut and once at run end, then "crash"
   into every capture: write the files back, recover with
   Checkpoint.recover, and finish the run under the journal verifier.

   Determinism gives one pass criterion that survives corruption: a
   restore from ANY valid cut — the newest, or FILE.prev after the
   newest was lost — completes to the same final report.  So every
   crash point must either complete byte-identically (with the journal
   fully re-emitted) or, under injection, degrade to a friendly
   [Error].  An exception anywhere is a failure. *)

type injection = Torn_write of int | Bit_flip of int

type t = {
  checkpoints : int;
  captures : int;
  mismatches : (int * string) list;
  degraded : int;
}

let passed d = d.mismatches = []

let read_bytes path =
  match Qnet_util.Io.read_file path with
  | Ok data -> data
  | Error m -> failwith ("Drill: " ^ m)

let write_bytes path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let clear_dir dir =
  Array.iter
    (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||])

(* The newest cut of a capture, damaged as the injection says. *)
let inject data = function
  | Torn_write n -> String.sub data 0 (max 0 (String.length data - n))
  | Bit_flip bit when data <> "" ->
      let b = Bytes.of_string data in
      let bit = bit mod (8 * Bytes.length b) in
      let i = bit / 8 in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
      Bytes.to_string b
  | Bit_flip _ -> data

let crash_restore ?config ?faults ?fault_schedule ?reconfig ?inject:injection
    ~every g params ~requests =
  let dir = Filename.temp_dir "muerp-drill" "" in
  let path = Filename.concat dir "drill.ckpt" in
  let jpath = Filename.concat dir "drill.journal" in
  let fingerprint = "drill" in
  let files = [ path; Checkpoint.prev_path path; jpath ] in
  let capture () =
    List.filter_map
      (fun p -> if Sys.file_exists p then Some (p, read_bytes p) else None)
      files
  in
  Fun.protect
    ~finally:(fun () ->
      clear_dir dir;
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      let writer = Checkpoint.writer ~path ~config:fingerprint ~journal:jpath () in
      let captures = ref [] and errors = ref [] and cuts = ref 0 in
      let sink _at snap =
        (* A crash point just before each cut too, while the journal
           holds every transition since the previous one. *)
        if !cuts > 0 then captures := capture () :: !captures;
        incr cuts;
        match Checkpoint.cut writer snap with
        | Ok _ -> captures := capture () :: !captures
        | Error m -> errors := (!cuts, "cut failed: " ^ m) :: !errors
      in
      let run ?on_transition ?checkpoint ?restore_from () =
        Engine.run ?config ?faults ?fault_schedule ?reconfig
          ?on_transition ?checkpoint ?restore_from g params ~requests
      in
      let base_report, base_outcomes =
        run ~on_transition:(Checkpoint.on_transition writer)
          ~checkpoint:(every, sink) ()
      in
      Checkpoint.close writer;
      (* One more crash point at run end, where the journal carries every
         transition since the last cut. *)
      let captures = List.rev (capture () :: !captures) in
      let base_table = Table.to_string (Engine.report_table base_report) in
      let degraded = ref 0 in
      List.iteri
        (fun i capture ->
          let fail reason = errors := (i + 1, reason) :: !errors in
          clear_dir dir;
          List.iter
            (fun (p, data) ->
              match injection with
              | Some inj when p = path -> write_bytes p (inject data inj)
              | _ -> write_bytes p data)
            capture;
          match Checkpoint.recover ~path ~config:fingerprint ~journal:jpath () with
          | exception e ->
              fail
                ("recovery raised " ^ Printexc.to_string e
               ^ " (must degrade to an error, never a backtrace)")
          | Error m ->
              if injection = None then fail ("recovery failed on clean files: " ^ m)
              else if String.trim m = "" then fail "recovery error has no message"
              else incr degraded
          | Ok r -> (
              if r.Checkpoint.r_warnings <> [] then begin
                if injection = None then
                  fail ("clean files recovered with warnings: "
                        ^ String.concat "; " r.Checkpoint.r_warnings)
                else incr degraded
              end;
              let v = Journal.verifier r.Checkpoint.r_journal in
              match
                run ~on_transition:(Journal.observe v)
                  ~restore_from:r.Checkpoint.r_snapshot ()
              with
              | exception Invalid_argument m -> fail ("restore refused: " ^ m)
              | report, outcomes -> (
                  if
                    not
                      (String.equal
                         (Table.to_string (Engine.report_table report))
                         base_table)
                  then fail "restored report differs"
                  else if compare outcomes base_outcomes <> 0 then
                    fail "restored outcomes differ"
                  else
                    match Journal.finish v with
                    | Ok _ -> ()
                    | Error m -> fail ("journal replay: " ^ m))))
        captures;
      {
        checkpoints = !cuts;
        captures = List.length captures;
        mismatches = List.rev !errors;
        degraded = !degraded;
      })

let pp ppf d =
  if passed d then
    Format.fprintf ppf
      "drill passed: %d checkpoint(s), %d crash point(s), all restores \
       identical, %d degraded gracefully"
      d.checkpoints d.captures d.degraded
  else begin
    Format.fprintf ppf "drill FAILED: %d of %d crash point(s) diverged"
      (List.length d.mismatches) d.captures;
    List.iter
      (fun (i, reason) -> Format.fprintf ppf "@.  crash point %d: %s" i reason)
      d.mismatches
  end
