module Sexp = Qnet_util.Sexp
module Engine = Qnet_online.Engine
module Reconfig = Qnet_online.Reconfig
module Fsched = Qnet_faults.Schedule
module Breaker = Qnet_overload.Breaker
module Wire = Qnet_telemetry.Wire

(* On-disk checkpoint format, version muerp-checkpoint/2:

     muerp-checkpoint/2
     (config "<fingerprint>")
     <binary snapshot body>
     integrity <md5-hex> <byte-length>

   The body is the engine snapshot in Wire primitives (varints, raw
   float bits, counted lists), followed by a newline.  The integrity
   footer covers every byte before it, so a torn or truncated write is
   detected before any decoding; the footer digest is also the cut's
   identity, which the journal quotes to say which cut it extends.

   Writes are durable and atomic: the tmp file is fsynced, the previous
   cut is renamed to FILE.prev, the tmp file is renamed to FILE, and the
   directory is fsynced.  Recovery tries FILE, then FILE.prev, so a
   crash or corruption that costs the newest cut still leaves the one
   before it.

   The config fingerprint is an opaque caller-chosen string (the CLI
   folds its run-shaping flags into it); a restore under different
   flags fails here with a message naming both, rather than deep inside
   the engine. *)

let version = "muerp-checkpoint/2"
let magic = "muerp-checkpoint"
let prev_path path = path ^ ".prev"

let err fmt = Printf.ksprintf (fun m -> Error m) fmt
let ( let* ) = Result.bind

(* --- snapshot codec ------------------------------------------------- *)

(* Fields decode with explicit [let]s: OCaml leaves the evaluation order
   of record fields and tuple components unspecified, and the decoder
   is stateful. *)

let corrupt fmt = Printf.ksprintf (fun m -> raise (Wire.Corrupt m)) fmt
let put_ints b l = Wire.put_list b Wire.put_int l
let get_ints d = Wire.get_list d Wire.get_int
let put_array b f a = Wire.put_list b f (Array.to_list a)
let get_array d f = Array.of_list (Wire.get_list d f)
let put_paths b paths = Wire.put_list b put_ints paths
let get_paths d = Wire.get_list d get_ints

let put_pair b (x, y) =
  Wire.put_int b x;
  Wire.put_int b y

let get_pair d =
  let x = Wire.get_int d in
  let y = Wire.get_int d in
  (x, y)

let put_change b = function
  | Reconfig.Switch_leave v -> Wire.put_byte b 0; Wire.put_int b v
  | Reconfig.Switch_join v -> Wire.put_byte b 1; Wire.put_int b v
  | Reconfig.Link_remove e -> Wire.put_byte b 2; Wire.put_int b e
  | Reconfig.Link_add e -> Wire.put_byte b 3; Wire.put_int b e
  | Reconfig.Provision { switch; qubits } ->
      Wire.put_byte b 4;
      Wire.put_int b switch;
      Wire.put_int b qubits

let get_change d =
  match Wire.get_byte d with
  | 0 -> Reconfig.Switch_leave (Wire.get_int d)
  | 1 -> Reconfig.Switch_join (Wire.get_int d)
  | 2 -> Reconfig.Link_remove (Wire.get_int d)
  | 3 -> Reconfig.Link_add (Wire.get_int d)
  | 4 ->
      let switch = Wire.get_int d in
      let qubits = Wire.get_int d in
      Reconfig.Provision { switch; qubits }
  | t -> corrupt "unknown reconfig tag %d" t

(* A pending fault or reconfiguration almost always sits in the queue
   at its own time; the common case is tagged so that time is not
   written twice, the general case carries it. *)
let same_time a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let put_event b at = function
  | Engine.SE_arrival id -> Wire.put_byte b 0; Wire.put_int b id
  | Engine.SE_retry id -> Wire.put_byte b 1; Wire.put_int b id
  | Engine.SE_expiry lid -> Wire.put_byte b 2; Wire.put_int b lid
  | Engine.SE_fault { Fsched.time; element; up } ->
      if same_time time at then Wire.put_byte b 3
      else begin
        Wire.put_byte b 5;
        Wire.put_float b time
      end;
      (match element with
      | Fsched.Link e -> Wire.put_byte b 0; Wire.put_int b e
      | Fsched.Switch v -> Wire.put_byte b 1; Wire.put_int b v);
      Wire.put_bool b up
  | Engine.SE_reconf { Reconfig.time; change } ->
      if same_time time at then Wire.put_byte b 4
      else begin
        Wire.put_byte b 6;
        Wire.put_float b time
      end;
      put_change b change

let get_event d at =
  match Wire.get_byte d with
  | 0 -> Engine.SE_arrival (Wire.get_int d)
  | 1 -> Engine.SE_retry (Wire.get_int d)
  | 2 -> Engine.SE_expiry (Wire.get_int d)
  | (3 | 5) as tag ->
      let time = if tag = 3 then at else Wire.get_float d in
      let element =
        match Wire.get_byte d with
        | 0 -> Fsched.Link (Wire.get_int d)
        | 1 -> Fsched.Switch (Wire.get_int d)
        | t -> corrupt "unknown fault-element tag %d" t
      in
      let up = Wire.get_bool d in
      Engine.SE_fault { Fsched.time; element; up }
  | (4 | 6) as tag ->
      let time = if tag = 4 then at else Wire.get_float d in
      let change = get_change d in
      Engine.SE_reconf { Reconfig.time; change }
  | t -> corrupt "unknown event tag %d" t

let put_resolution b = function
  | Engine.SR_served r ->
      Wire.put_byte b 0;
      Wire.put_float b r.r_start;
      Wire.put_float b r.r_finish;
      Wire.put_float b r.r_rate;
      Wire.put_int b r.r_attempts;
      Wire.put_int b r.r_recoveries;
      Wire.put_int b r.r_tier;
      put_paths b r.r_paths
  | Engine.SR_rejected r ->
      Wire.put_byte b 1;
      Wire.put_float b r.r_at;
      Wire.put_bool b r.r_queue_full
  | Engine.SR_shed r ->
      Wire.put_byte b 2;
      Wire.put_float b r.r_at;
      Wire.put_bool b (r.r_reason = Engine.Queue_pressure)
  | Engine.SR_expired r ->
      Wire.put_byte b 3;
      Wire.put_float b r.r_at;
      Wire.put_int b r.r_attempts
  | Engine.SR_interrupted r ->
      Wire.put_byte b 4;
      Wire.put_float b r.r_start;
      Wire.put_float b r.r_at;
      Wire.put_int b r.r_attempts;
      Wire.put_int b r.r_recoveries

let get_resolution d =
  match Wire.get_byte d with
  | 0 ->
      let r_start = Wire.get_float d in
      let r_finish = Wire.get_float d in
      let r_rate = Wire.get_float d in
      let r_attempts = Wire.get_int d in
      let r_recoveries = Wire.get_int d in
      let r_tier = Wire.get_int d in
      let r_paths = get_paths d in
      Engine.SR_served
        { r_start; r_finish; r_paths; r_rate; r_attempts; r_recoveries; r_tier }
  | 1 ->
      let r_at = Wire.get_float d in
      let r_queue_full = Wire.get_bool d in
      Engine.SR_rejected { r_at; r_queue_full }
  | 2 ->
      let r_at = Wire.get_float d in
      let r_reason =
        if Wire.get_bool d then Engine.Queue_pressure else Engine.Rate_limit
      in
      Engine.SR_shed { r_at; r_reason }
  | 3 ->
      let r_at = Wire.get_float d in
      let r_attempts = Wire.get_int d in
      Engine.SR_expired { r_at; r_attempts }
  | 4 ->
      let r_start = Wire.get_float d in
      let r_at = Wire.get_float d in
      let r_attempts = Wire.get_int d in
      let r_recoveries = Wire.get_int d in
      Engine.SR_interrupted { r_start; r_at; r_attempts; r_recoveries }
  | t -> corrupt "unknown outcome tag %d" t

let put_state b (ss : Engine.s_state) =
  Wire.put_int b ss.ss_id;
  Wire.put_int b ss.ss_attempts;
  Wire.put_float b ss.ss_backoff;
  Wire.put_bool b ss.ss_waiting;
  Wire.put_bool b ss.ss_resolved

let get_state d =
  let ss_id = Wire.get_int d in
  let ss_attempts = Wire.get_int d in
  let ss_backoff = Wire.get_float d in
  let ss_waiting = Wire.get_bool d in
  let ss_resolved = Wire.get_bool d in
  { Engine.ss_id; ss_attempts; ss_backoff; ss_waiting; ss_resolved }

let put_active b (sa : Engine.s_active) =
  Wire.put_int b sa.sa_lid;
  Wire.put_int b sa.sa_id;
  Wire.put_float b sa.sa_started;
  Wire.put_float b sa.sa_finish;
  Wire.put_int b sa.sa_recoveries;
  Wire.put_int b sa.sa_tier;
  put_paths b sa.sa_paths

let get_active d =
  let sa_lid = Wire.get_int d in
  let sa_id = Wire.get_int d in
  let sa_started = Wire.get_float d in
  let sa_finish = Wire.get_float d in
  let sa_recoveries = Wire.get_int d in
  let sa_tier = Wire.get_int d in
  let sa_paths = get_paths d in
  { Engine.sa_lid; sa_id; sa_paths; sa_started; sa_finish; sa_recoveries;
    sa_tier }

let put_health b (h : Qnet_faults.Health.snapshot) =
  put_array b Wire.put_int h.s_link_down;
  put_array b Wire.put_int h.s_switch_down;
  put_array b Wire.put_float h.s_link_since;
  put_array b Wire.put_float h.s_switch_since;
  Wire.put_int b h.s_repairs;
  Wire.put_float b h.s_total_downtime

let get_health d =
  let s_link_down = get_array d Wire.get_int in
  let s_switch_down = get_array d Wire.get_int in
  let s_link_since = get_array d Wire.get_float in
  let s_switch_since = get_array d Wire.get_float in
  let s_repairs = Wire.get_int d in
  let s_total_downtime = Wire.get_float d in
  { Qnet_faults.Health.s_link_down; s_switch_down; s_link_since;
    s_switch_since; s_repairs; s_total_downtime }

let put_breaker b (state, cf, cd, op) =
  Wire.put_byte b
    (match state with
    | Breaker.Closed -> 0
    | Breaker.Open -> 1
    | Breaker.Half_open -> 2);
  Wire.put_int b cf;
  Wire.put_int b cd;
  Wire.put_int b op

let get_breaker d =
  let state =
    match Wire.get_byte d with
    | 0 -> Breaker.Closed
    | 1 -> Breaker.Open
    | 2 -> Breaker.Half_open
    | t -> corrupt "unknown breaker-state tag %d" t
  in
  let cf = Wire.get_int d in
  let cd = Wire.get_int d in
  let op = Wire.get_int d in
  (state, cf, cd, op)

let put_tier b (st : Engine.s_tier) =
  put_array b Wire.put_int st.st_serves;
  put_array b Wire.put_int st.st_exhaustions;
  put_array b Wire.put_int st.st_verify_rejects;
  put_array b Wire.put_int st.st_breaker_skips;
  put_array b put_breaker st.st_breakers;
  Wire.put_int b st.st_last

let get_tier d =
  let st_serves = get_array d Wire.get_int in
  let st_exhaustions = get_array d Wire.get_int in
  let st_verify_rejects = get_array d Wire.get_int in
  let st_breaker_skips = get_array d Wire.get_int in
  let st_breakers = get_array d get_breaker in
  let st_last = Wire.get_int d in
  { Engine.st_serves; st_exhaustions; st_verify_rejects; st_breaker_skips;
    st_breakers; st_last }

(* The policy state is an opaque document owned by the policy; it
   travels as its sexp text. *)
let put_policy b doc = Wire.put_string b (Sexp.to_string doc)

let get_policy d =
  match Sexp.of_string (Wire.get_string d) with
  | Ok doc -> doc
  | Error m -> corrupt "unreadable policy state (%s)" m

let put_metric b (name, v) =
  Wire.put_string b name;
  Wire.put_dumped b v

let get_metric d =
  let name = Wire.get_string d in
  let v = Wire.get_dumped d in
  (name, v)

let encode (s : Engine.snapshot) =
  let b = Wire.encoder () in
  let int = Wire.put_int b and float = Wire.put_float b in
  float s.s_at;
  float s.s_next_ckpt;
  int s.s_next_seq;
  int s.s_next_lease;
  Wire.put_list b
    (fun b (t, seq, ev) ->
      Wire.put_float b t;
      Wire.put_int b seq;
      put_event b t ev)
    s.s_events;
  Wire.put_list b put_state s.s_states;
  put_ints b s.s_queue;
  Wire.put_list b put_active s.s_active;
  Wire.put_list b
    (fun b (id, r) ->
      Wire.put_int b id;
      put_resolution b r)
    s.s_outcomes;
  Wire.put_list b put_pair s.s_quota;
  Wire.put_list b put_pair s.s_residual;
  List.iter int
    [ s.s_shed_total; s.s_gate_rejected; s.s_budget_exhaustions;
      s.s_peak_qubits; s.s_peak_queue; s.s_retries ];
  List.iter float [ s.s_util_integral; s.s_last_time; s.s_makespan ];
  List.iter int
    [ s.s_faults_injected; s.s_faults_repaired; s.s_leases_interrupted;
      s.s_leases_recovered; s.s_leases_aborted ];
  float s.s_lost_service;
  int s.s_reconfig_applied;
  int s.s_reconfig_recovered;
  Wire.put_option b (fun b (tokens, last) ->
      Wire.put_float b tokens;
      Wire.put_float b last)
    s.s_limiter;
  Wire.put_option b put_health s.s_health;
  Wire.put_option b put_tier s.s_tier;
  Wire.put_option b put_policy s.s_policy;
  Wire.put_option b (fun b m -> Wire.put_list b put_metric m) s.s_metrics;
  Wire.contents b

let get_snapshot d =
  let int () = Wire.get_int d and float () = Wire.get_float d in
  let s_at = float () in
  let s_next_ckpt = float () in
  let s_next_seq = int () in
  let s_next_lease = int () in
  let s_events =
    Wire.get_list d (fun d ->
        let t = Wire.get_float d in
        let seq = Wire.get_int d in
        let ev = get_event d t in
        (t, seq, ev))
  in
  let s_states = Wire.get_list d get_state in
  let s_queue = get_ints d in
  let s_active = Wire.get_list d get_active in
  let s_outcomes =
    Wire.get_list d (fun d ->
        let id = Wire.get_int d in
        let r = get_resolution d in
        (id, r))
  in
  let s_quota = Wire.get_list d get_pair in
  let s_residual = Wire.get_list d get_pair in
  let s_shed_total = int () in
  let s_gate_rejected = int () in
  let s_budget_exhaustions = int () in
  let s_peak_qubits = int () in
  let s_peak_queue = int () in
  let s_retries = int () in
  let s_util_integral = float () in
  let s_last_time = float () in
  let s_makespan = float () in
  let s_faults_injected = int () in
  let s_faults_repaired = int () in
  let s_leases_interrupted = int () in
  let s_leases_recovered = int () in
  let s_leases_aborted = int () in
  let s_lost_service = float () in
  let s_reconfig_applied = int () in
  let s_reconfig_recovered = int () in
  let s_limiter =
    Wire.get_option d (fun d ->
        let tokens = Wire.get_float d in
        let last = Wire.get_float d in
        (tokens, last))
  in
  let s_health = Wire.get_option d get_health in
  let s_tier = Wire.get_option d get_tier in
  let s_policy = Wire.get_option d get_policy in
  let s_metrics = Wire.get_option d (fun d -> Wire.get_list d get_metric) in
  {
    Engine.s_at; s_next_ckpt; s_events; s_next_seq; s_states; s_queue;
    s_active; s_outcomes; s_next_lease; s_quota; s_residual; s_shed_total;
    s_gate_rejected; s_budget_exhaustions; s_peak_qubits; s_peak_queue;
    s_retries; s_util_integral; s_last_time; s_makespan; s_faults_injected;
    s_faults_repaired; s_leases_interrupted; s_leases_recovered;
    s_leases_aborted; s_lost_service; s_reconfig_applied;
    s_reconfig_recovered; s_limiter; s_health; s_tier; s_policy; s_metrics;
  }

let decode body =
  let d = Wire.decoder body in
  match get_snapshot d with
  | snap when Wire.remaining d = 0 -> Ok snap
  | _ -> err "%d trailing byte(s)" (Wire.remaining d)
  | exception Wire.Corrupt m -> Error m

(* --- files ---------------------------------------------------------- *)

(* Best effort: some file systems refuse to fsync a directory. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
  | exception Unix.Unix_error _ -> ()

let save ~path ~config snap =
  let body =
    String.concat ""
      [ version; "\n";
        Sexp.to_string (Sexp.list [ Sexp.atom "config"; Sexp.atom config ]);
        "\n"; encode snap; "\n" ]
  in
  let digest = Digest.to_hex (Digest.string body) in
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc body;
        Printf.fprintf oc "integrity %s %d\n" digest (String.length body);
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    if Sys.file_exists path then Sys.rename path (prev_path path);
    Sys.rename tmp path;
    fsync_dir (Filename.dirname path);
    Ok digest
  with
  | Sys_error m -> err "cannot write checkpoint: %s" m
  | Unix.Unix_error (e, _, _) ->
      err "cannot write checkpoint %s: %s" path (Unix.error_message e)

(* Split off the trailing "integrity <hex> <len>\n" footer and verify
   it against the preceding bytes; returns the body and its digest. *)
let verified_body path data =
  let n = String.length data in
  if n = 0 then err "checkpoint %s is empty" path
  else if data.[n - 1] <> '\n' then
    err "checkpoint %s is truncated (no final newline)" path
  else
    let line_start =
      match String.rindex_from_opt data (n - 2) '\n' with
      | Some i -> i + 1
      | None -> 0
    in
    let footer = String.sub data line_start (n - 1 - line_start) in
    match String.split_on_char ' ' footer with
    | [ "integrity"; hex; len ] -> (
        match int_of_string_opt len with
        | None -> err "checkpoint %s has a malformed integrity footer" path
        | Some len ->
            let body = String.sub data 0 line_start in
            if String.length body <> len then
              err
                "checkpoint %s is torn or truncated (expected %d bytes, \
                 found %d)"
                path len (String.length body)
            else if not (String.equal (Digest.to_hex (Digest.string body)) hex)
            then err "checkpoint %s fails its checksum (corrupt file)" path
            else Ok (body, hex))
    | _ ->
        err "checkpoint %s has no integrity footer (torn or truncated write)"
          path

(* The verified file: config fingerprint, snapshot and footer digest. *)
let read_digest ~path =
  let* data =
    Result.map_error (fun m -> "cannot read checkpoint: " ^ m)
      (Qnet_util.Io.read_file path)
  in
  (* Identify the file before integrity-checking it: a random file that
     merely lacks a footer should be called what it is, not "torn". *)
  let* () =
    if String.starts_with ~prefix:magic data then Ok ()
    else if data = "" then err "checkpoint %s is empty" path
    else err "%s is not a muerp checkpoint file" path
  in
  let* body, digest = verified_body path data in
  let line from =
    match String.index_from_opt body from '\n' with
    | Some i -> Some (String.sub body from (i - from), i + 1)
    | None -> None
  in
  match line 0 with
  | Some (header, _) when header <> version ->
      err "checkpoint %s uses unsupported version %s (this build reads %s)"
        path header version
  | None -> err "%s is not a muerp checkpoint file" path
  | Some (_, p1) -> (
      let config =
        match line p1 with
        | Some (l, p2) -> (
            match Sexp.of_string l with
            | Ok (Sexp.List [ Sexp.Atom "config"; Sexp.Atom c ]) -> Some (c, p2)
            | Ok _ | Error _ -> None)
        | None -> None
      in
      match config with
      | None -> err "checkpoint %s has a malformed config record" path
      | Some (config, p2) ->
          let n = String.length body in
          if n = p2 || body.[n - 1] <> '\n' then
            err "checkpoint %s has a malformed snapshot body" path
          else
            let* snap =
              Result.map_error
                (fun m ->
                  Printf.sprintf "checkpoint %s has a malformed snapshot body \
                                  (%s)" path m)
                (decode (String.sub body p2 (n - 1 - p2)))
            in
            Ok (config, snap, digest))

let read ~path =
  let* config, snap, _ = read_digest ~path in
  Ok (config, snap)

let load_digest ~path ~config =
  let* written, snap, digest = read_digest ~path in
  if String.equal written config then Ok (snap, digest)
  else
    err "checkpoint %s was written under different flags (%s) than this run (%s)"
      path written config

let load ~path ~config = Result.map fst (load_digest ~path ~config)

(* --- writer --------------------------------------------------------- *)

type writer = {
  w_path : string;
  w_config : string;
  w_journal_path : string option;
  mutable w_cuts : int;
  mutable w_journal : Journal.writer option;
}

let writer ~path ~config ?journal () =
  { w_path = path; w_config = config; w_journal_path = journal; w_cuts = 0;
    w_journal = None }

let close w =
  Option.iter (fun j -> ignore (Journal.close j)) w.w_journal;
  w.w_journal <- None

(* After every cut the journal restarts, chained to the cut just
   written: its records are exactly the transitions committed past the
   newest durable state. *)
let cut w snap =
  let* digest = save ~path:w.w_path ~config:w.w_config snap in
  w.w_cuts <- w.w_cuts + 1;
  match w.w_journal_path with
  | None -> Ok digest
  | Some path ->
      close w;
      let* j =
        Journal.create ~path ~config:w.w_config ~head:digest ~index:w.w_cuts
      in
      w.w_journal <- Some j;
      Ok digest

let on_transition w tr = Option.iter (fun j -> Journal.append j tr) w.w_journal

(* --- recovery ------------------------------------------------------- *)

type recovered = {
  r_snapshot : Engine.snapshot;
  r_path : string;
  r_warnings : string list;
  r_journal : Engine.transition list;
}

let recover ~path ~config ?journal () =
  let warnings = ref [] in
  let warn fmt = Printf.ksprintf (fun m -> warnings := m :: !warnings) fmt in
  let prev = prev_path path in
  let* r_path, (r_snapshot, digest) =
    match load_digest ~path ~config with
    | Ok v -> Ok (path, v)
    | Error m -> (
        match load_digest ~path:prev ~config with
        | Ok v ->
            warn "%s — restoring the previous cut %s" m prev;
            Ok (prev, v)
        | Error m' -> Error (if Sys.file_exists prev then m ^ "; " ^ m' else m))
  in
  (* The journal is only usable when it extends exactly the cut we
     loaded; anything else is stale, and stale means ignore, not
     fail. *)
  let r_journal =
    match journal with
    | Some jpath when Sys.file_exists jpath -> (
        match Journal.read ~path:jpath with
        | Error m ->
            warn "%s — ignoring the journal" m;
            []
        | Ok c when not (String.equal c.Journal.j_config config) ->
            warn "journal %s was written under different flags — ignoring it"
              jpath;
            []
        | Ok c when not (String.equal c.Journal.j_head digest) ->
            warn
              "journal %s does not extend the recovered cut %s (stale) — \
               ignoring it"
              jpath r_path;
            []
        | Ok c ->
            Option.iter (warn "%s") c.Journal.j_torn;
            c.Journal.j_records)
    | _ -> []
  in
  Ok { r_snapshot; r_path; r_warnings = List.rev !warnings; r_journal }
