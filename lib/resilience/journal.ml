module Engine = Qnet_online.Engine
module Wire = Qnet_telemetry.Wire

(* Write-ahead event journal: an append-only record of every committed
   engine transition since the last checkpoint cut.

   File layout (version muerp-journal/1):

     muerp-journal/1
     (config "<fingerprint>")
     (chain (head <md5>) (index N))
     <binary records...>

   The header names the checkpoint cut the journal extends — the cut's
   footer digest ([head]) and its ordinal among the cuts its writer made
   ([index], informational) — so recovery can tell a journal that
   belongs to the restored cut from a stale one left by an earlier
   cut.

   Each record is [varint length][payload][4-byte truncated MD5 of the
   payload].  The per-record checksum makes the torn-tail case (the
   crash happened mid-append) detectable at the exact record boundary:
   replay keeps everything before the first bad frame and reports the
   tail as torn, never as an error — losing the final in-flight record
   to a crash is the expected physics of a write-ahead log, not
   corruption.

   Appends are batched: records accumulate in the OS buffer and an
   fsync is issued every [fsync_every] records (and on close), bounding
   the replay-verified work lost to a power cut without paying a disk
   round-trip per admission.

   The journal is never *trusted*: because the engine is deterministic,
   restore re-executes from the checkpoint cut and checks that the run
   re-emits exactly the recorded stream ([verifier]).  The journal's
   value is attestation — proof that the state recovered equals the
   state that crashed — not an alternative source of truth. *)

let version = "muerp-journal/1"
let fsync_every = 32
let crc_len = 4

(* --- transition codec ---------------------------------------------- *)

let put_transition enc (tr : Engine.transition) =
  let bool = Wire.put_bool enc in
  match tr with
  | Engine.T_admit { at; lid; request } ->
      Wire.put_byte enc 0;
      Wire.put_float enc at;
      Wire.put_uint enc lid;
      Wire.put_int enc request
  | Engine.T_release { at; lid } ->
      Wire.put_byte enc 1;
      Wire.put_float enc at;
      Wire.put_uint enc lid
  | Engine.T_recover { at; lid } ->
      Wire.put_byte enc 2;
      Wire.put_float enc at;
      Wire.put_uint enc lid
  | Engine.T_abort { at; lid } ->
      Wire.put_byte enc 3;
      Wire.put_float enc at;
      Wire.put_uint enc lid
  | Engine.T_fault { at; link; element; up } ->
      Wire.put_byte enc 4;
      Wire.put_float enc at;
      bool link;
      Wire.put_uint enc element;
      bool up
  | Engine.T_reconfig { at; link; element; up } ->
      Wire.put_byte enc 5;
      Wire.put_float enc at;
      bool link;
      Wire.put_uint enc element;
      bool up
  | Engine.T_provision { at; switch; qubits } ->
      Wire.put_byte enc 6;
      Wire.put_float enc at;
      Wire.put_uint enc switch;
      Wire.put_int enc qubits

let get_transition dec : Engine.transition =
  let bool () = Wire.get_bool dec in
  match Wire.get_byte dec with
  | 0 ->
      let at = Wire.get_float dec in
      let lid = Wire.get_uint dec in
      let request = Wire.get_int dec in
      Engine.T_admit { at; lid; request }
  | 1 ->
      let at = Wire.get_float dec in
      let lid = Wire.get_uint dec in
      Engine.T_release { at; lid }
  | 2 ->
      let at = Wire.get_float dec in
      let lid = Wire.get_uint dec in
      Engine.T_recover { at; lid }
  | 3 ->
      let at = Wire.get_float dec in
      let lid = Wire.get_uint dec in
      Engine.T_abort { at; lid }
  | 4 ->
      let at = Wire.get_float dec in
      let link = bool () in
      let element = Wire.get_uint dec in
      let up = bool () in
      Engine.T_fault { at; link; element; up }
  | 5 ->
      let at = Wire.get_float dec in
      let link = bool () in
      let element = Wire.get_uint dec in
      let up = bool () in
      Engine.T_reconfig { at; link; element; up }
  | 6 ->
      let at = Wire.get_float dec in
      let switch = Wire.get_uint dec in
      let qubits = Wire.get_int dec in
      Engine.T_provision { at; switch; qubits }
  | tag -> raise (Wire.Corrupt (Printf.sprintf "unknown transition tag %d" tag))

let describe (tr : Engine.transition) =
  match tr with
  | Engine.T_admit { at; lid; request } ->
      Printf.sprintf "admit lease %d for request %d at t=%g" lid request at
  | Engine.T_release { at; lid } ->
      Printf.sprintf "release lease %d at t=%g" lid at
  | Engine.T_recover { at; lid } ->
      Printf.sprintf "recover lease %d at t=%g" lid at
  | Engine.T_abort { at; lid } -> Printf.sprintf "abort lease %d at t=%g" lid at
  | Engine.T_fault { at; link; element; up } ->
      Printf.sprintf "fault %s %d %s at t=%g"
        (if link then "link" else "switch")
        element
        (if up then "up" else "down")
        at
  | Engine.T_reconfig { at; link; element; up } ->
      Printf.sprintf "reconfig %s %d %s at t=%g"
        (if link then "link" else "switch")
        element
        (if up then "up" else "down")
        at
  | Engine.T_provision { at; switch; qubits } ->
      Printf.sprintf "provision switch %d to %d qubits at t=%g" switch qubits
        at

(* --- writer -------------------------------------------------------- *)

type writer = {
  w_oc : out_channel;
  w_fd : Unix.file_descr;
  mutable w_pending : int;  (* records since last fsync *)
  mutable w_count : int;
  mutable w_closed : bool;
}

let varint_bytes n =
  let buf = Buffer.create 4 in
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n;
  Buffer.contents buf

let record_crc payload = String.sub (Digest.string payload) 0 crc_len

let create ~path ~config ~head ~index =
  try
    let oc = open_out_bin path in
    Printf.fprintf oc "%s\n(config \"%s\")\n(chain (head %s) (index %d))\n"
      version (String.escaped config) head index;
    flush oc;
    let fd = Unix.descr_of_out_channel oc in
    Unix.fsync fd;
    Ok { w_oc = oc; w_fd = fd; w_pending = 0; w_count = 0; w_closed = false }
  with
  | Sys_error m -> Error (Printf.sprintf "cannot write journal: %s" m)
  | Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "cannot write journal %s: %s" path
               (Unix.error_message e))

let append w (tr : Engine.transition) =
  if w.w_closed then invalid_arg "Journal.append: writer is closed";
  let enc = Wire.encoder () in
  put_transition enc tr;
  let payload = Wire.contents enc in
  output_string w.w_oc (varint_bytes (String.length payload));
  output_string w.w_oc payload;
  output_string w.w_oc (record_crc payload);
  w.w_count <- w.w_count + 1;
  w.w_pending <- w.w_pending + 1;
  if w.w_pending >= fsync_every then begin
    flush w.w_oc;
    Unix.fsync w.w_fd;
    w.w_pending <- 0
  end

let close w =
  if not w.w_closed then begin
    w.w_closed <- true;
    flush w.w_oc;
    (try Unix.fsync w.w_fd with Unix.Unix_error _ -> ());
    close_out_noerr w.w_oc
  end;
  w.w_count

(* --- reader -------------------------------------------------------- *)

type contents = {
  j_config : string;
  j_head : string;
  j_index : int;
  j_records : Engine.transition list;  (* commit order *)
  j_torn : string option;
      (* a warning when the tail was cut mid-record: everything before
         it is intact and usable *)
}

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

(* Split the three header lines off the raw file. *)
let split_header path data =
  let next_line pos =
    match String.index_from_opt data pos '\n' with
    | Some i -> Some (String.sub data pos (i - pos), i + 1)
    | None -> None
  in
  match next_line 0 with
  | Some (v, p1) when v = version -> (
      match next_line p1 with
      | Some (config_line, p2) -> (
          match next_line p2 with
          | Some (chain_line, p3) -> Ok (config_line, chain_line, p3)
          | None -> err "journal %s is truncated inside its header" path)
      | None -> err "journal %s is truncated inside its header" path)
  | Some (v, _)
    when String.length v >= 13 && String.sub v 0 13 = "muerp-journal" ->
      err "journal %s uses unsupported version %s (this build reads %s)" path v
        version
  | Some _ -> err "%s is not a muerp journal file" path
  | None ->
      if String.length data = 0 then err "journal %s is empty" path
      else err "%s is not a muerp journal file" path

let parse_header path config_line chain_line =
  let module Sexp = Qnet_util.Sexp in
  let ( let* ) = Result.bind in
  let* j_config =
    match Sexp.of_string config_line with
    | Ok (Sexp.List [ Sexp.Atom "config"; Sexp.Atom c ]) -> Ok c
    | Ok _ | Error _ -> err "journal %s has a malformed config record" path
  in
  let* j_head, j_index =
    match Sexp.of_string chain_line with
    | Ok
        (Sexp.List
          [
            Sexp.Atom "chain";
            Sexp.List [ Sexp.Atom "head"; Sexp.Atom head ];
            Sexp.List [ Sexp.Atom "index"; Sexp.Atom index ];
          ]) -> (
        match int_of_string_opt index with
        | Some i -> Ok (head, i)
        | None -> err "journal %s has a malformed chain record" path)
    | Ok _ | Error _ -> err "journal %s has a malformed chain record" path
  in
  Ok (j_config, j_head, j_index)

(* Decode records until the data runs out; a frame cut short or failing
   its checksum ends the stream with a torn-tail warning. *)
let decode_records path data pos =
  let n = String.length data in
  let torn idx what =
    Some
      (Printf.sprintf
         "journal %s: record %d is torn (%s); replaying the %d intact \
          record(s) before it"
         path (idx + 1) what idx)
  in
  let read_varint pos =
    (* None = clean EOF at a record boundary; Corrupt = cut mid-varint *)
    if pos >= n then None
    else
      let rec go pos shift acc =
        if pos >= n then raise (Wire.Corrupt "length cut short")
        else
          let b = Char.code data.[pos] in
          let acc = acc lor ((b land 0x7f) lsl shift) in
          if b < 0x80 then Some (acc, pos + 1) else go (pos + 1) (shift + 7) acc
      in
      go pos 0 0
  in
  let rec go pos idx acc =
    match read_varint pos with
    | None -> (List.rev acc, None)
    | Some (len, pos) ->
        if pos + len + crc_len > n then (List.rev acc, torn idx "cut short")
        else
          let payload = String.sub data pos len in
          let crc = String.sub data (pos + len) crc_len in
          if not (String.equal crc (record_crc payload)) then
            (List.rev acc, torn idx "checksum mismatch")
          else begin
            let dec = Wire.decoder payload in
            match
              let tr = get_transition dec in
              if Wire.remaining dec <> 0 then
                raise (Wire.Corrupt "trailing bytes in record");
              tr
            with
            | tr -> go (pos + len + crc_len) (idx + 1) (tr :: acc)
            | exception Wire.Corrupt what -> (List.rev acc, torn idx what)
          end
    | exception Wire.Corrupt what -> (List.rev acc, torn idx what)
  in
  go pos 0 []

let read ~path =
  let ( let* ) = Result.bind in
  let* data =
    Result.map_error (fun m -> "cannot read journal: " ^ m)
      (Qnet_util.Io.read_file path)
  in
  let* config_line, chain_line, body_pos = split_header path data in
  let* j_config, j_head, j_index = parse_header path config_line chain_line in
  let j_records, j_torn = decode_records path data body_pos in
  Ok { j_config; j_head; j_index; j_records; j_torn }

(* --- replay verifier ----------------------------------------------- *)

type verifier = {
  mutable v_expected : Engine.transition list;
  mutable v_matched : int;
  mutable v_error : string option;
}

let verifier records = { v_expected = records; v_matched = 0; v_error = None }

let observe v (tr : Engine.transition) =
  match v.v_error with
  | Some _ -> ()
  | None -> (
      match v.v_expected with
      | [] ->
          (* The run outlived the journal: expected when the journal's
             tail was torn or the crash happened between fsyncs — the
             replay simply re-commits past the recorded horizon. *)
          ()
      | expected :: rest ->
          if tr = expected then begin
            v.v_expected <- rest;
            v.v_matched <- v.v_matched + 1
          end
          else
            v.v_error <-
              Some
                (Printf.sprintf
                   "replay diverged from the journal at record %d: journal \
                    says [%s], replay committed [%s]"
                   (v.v_matched + 1) (describe expected) (describe tr)))

let finish v =
  match v.v_error with
  | Some m -> Error m
  | None -> (
      match v.v_expected with
      | [] -> Ok v.v_matched
      | remaining ->
          Error
            (Printf.sprintf
               "replay ended with %d journal record(s) unconsumed (first: \
                %s) — the journal does not belong to this state"
               (List.length remaining)
               (describe (List.hd remaining))))
