(** Plain-text task-graph interchange, in the spirit of TGFF's `.tgff`
    files (the tool behind the paper's benchmark style).

    Format (one directive per line, [#] starts a comment):

    {v
    graph <name> deadline <float>
    task <name> type <int>
    edge <src-name> -> <dst-name> [data <float>]
    v}

    Task names must be unique; edges refer to tasks by name and must appear
    after both endpoints were declared (like TGFF output). *)

val to_string : Graph.t -> string
(** Serialize; [of_string (to_string g)] reconstructs an identical graph.
    Deadlines and edge data are printed with the fewest significant digits
    (at least 6) that read back as the same float. *)

val of_string : string -> (Graph.t, string) result
(** Parse. The error string carries a 1-based line number. *)

val save : Graph.t -> string -> unit
val load : string -> (Graph.t, string) result
