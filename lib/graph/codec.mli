(** Persistence of quantum networks as s-expressions.

    Lets experiments pin down the exact network a result came from:
    the CLI's [topology --save] writes this format, [solve --load]
    re-reads it, and tests round-trip it.  The format is versioned and
    self-describing:

    {v
    (qnet-graph (version 1)
      (vertices (id kind qubits x y) ...)
      (edges (a b length) ...))
    v} *)

val graph_to_sexp : Graph.t -> Qnet_util.Sexp.t
(** Serialise a network. *)

val graph_of_sexp : Qnet_util.Sexp.t -> (Graph.t, string) result
(** Rebuild a network; errors describe the offending field.  Vertex ids
    must be dense and in order (as produced by {!graph_to_sexp}). *)

val save_graph : string -> Graph.t -> unit
(** [save_graph path g] writes the human-readable rendering to [path].
    @raise Sys_error on I/O failure. *)

val load_graph : string -> (Graph.t, string) result
(** Read a network back from disk.  I/O, parse and validation errors
    are all returned as [Error], each message naming the file. *)
