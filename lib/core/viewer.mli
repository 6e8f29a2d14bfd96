(** ScalAna-viewer: terminal rendering of a finished pipeline — the
    Fig. 9 GUI flattened to text (report + source windows). *)

val show : ?snippet_context:int -> Pipeline.t -> string

(** ASCII per-rank timeline ([width] columns over the run, default 64):
    '=' compute, 'M' MPI, 'w' MPI wait, with per-rank blocked totals.
    Explains itself when the pipeline carried no timeline. *)
val show_timeline : ?width:int -> Pipeline.t -> string
