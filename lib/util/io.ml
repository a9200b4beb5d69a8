let read_file path =
  let fail m =
    (* [open_in]'s [Sys_error] messages already lead with the path. *)
    let prefix = path ^ ": " in
    Error (if String.starts_with ~prefix m then m else prefix ^ m)
  in
  if Sys.file_exists path && Sys.is_directory path then fail "is a directory"
  else
    match open_in_bin path with
    | exception Sys_error m -> fail m
    | ic -> (
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            match really_input_string ic (in_channel_length ic) with
            | data -> Ok data
            | exception Sys_error m -> fail m
            | exception End_of_file -> fail "file shrank while being read"))
