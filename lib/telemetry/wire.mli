(** Compact binary codec: the primitives behind every binary format in
    the project — checkpoint cuts ({!Qnet_resilience.Checkpoint}) and
    write-ahead journal records ({!Qnet_resilience.Journal}).

    Integers are LEB128 varints (zigzag-mapped when signed), floats are
    their eight raw IEEE-754 bytes, strings and lists are
    length-prefixed.  Everything round-trips exactly, float bits
    included.

    Decoding raises {!Corrupt} on truncated or malformed input; each
    file format catches it at its record boundary and turns it into a
    [result], so a truncated or bit-flipped payload surfaces as a
    human-readable error, never an exception escaping the file layer. *)

exception Corrupt of string
(** Raised by [get_*] on truncated or malformed input.  Catch at the
    record boundary and turn into a friendly error. *)

(** {1 Encoding} *)

type enc

val encoder : unit -> enc
val contents : enc -> string
val put_byte : enc -> int -> unit
val put_uint : enc -> int -> unit
(** Unsigned LEB128.  @raise Invalid_argument on a negative value. *)

val put_int : enc -> int -> unit
(** Zigzag-mapped signed varint. *)

val put_float : enc -> float -> unit
(** Eight raw little-endian IEEE-754 bytes; round-trips every double
    (including infinities and NaN) exactly. *)

val put_string : enc -> string -> unit
val put_bool : enc -> bool -> unit

val put_list : enc -> (enc -> 'a -> unit) -> 'a list -> unit
(** Element count, then each element. *)

val put_option : enc -> (enc -> 'a -> unit) -> 'a option -> unit
(** A presence byte, then the value when present. *)

(** {1 Decoding} *)

type dec

val decoder : string -> dec
val remaining : dec -> int
val get_byte : dec -> int
val get_uint : dec -> int
val get_int : dec -> int
val get_float : dec -> float
val get_string : dec -> string
val get_bool : dec -> bool
(** Rejects any byte other than [0] and [1]. *)

val get_list : dec -> (dec -> 'a) -> 'a list
(** Length-prefixed list, decoded strictly left to right; a count
    larger than the remaining bytes is rejected before allocation. *)

val get_option : dec -> (dec -> 'a) -> 'a option
(** Rejects a presence byte other than [0] and [1]. *)

(** {1 Metrics} *)

val put_dumped : enc -> Metrics.dumped -> unit
val get_dumped : dec -> Metrics.dumped
