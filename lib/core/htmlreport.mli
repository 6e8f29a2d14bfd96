(** Standalone HTML rendering of a finished pipeline — the Fig. 9 viewer
    as a self-contained file with root causes, backtracking paths, source
    snippets and per-rank SVG bar charts.  It lays out the pipeline's
    report model ([pipe.model]), which decides what the page contains. *)

val render : Pipeline.t -> string
val write : Pipeline.t -> path:string -> unit
