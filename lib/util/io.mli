(** Whole-file reads with errors that name the file. *)

val read_file : string -> (string, string) result
(** [read_file path] is the complete contents of [path], read in binary
    mode.  Every failure — a missing file, a directory, a permission
    problem, a file that shrinks mid-read — is an [Error] whose message
    starts with [path]; the channel is closed on every path. *)
