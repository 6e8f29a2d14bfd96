(** Backtracking root-cause detection (Section IV-B, Algorithm 1):
    walk the PPG backwards from a problematic vertex — data/control
    dependence within a process, waiting communication edges across
    processes, collective jumps to the habitual last arriver — until the
    root, an attributed collective, or a cycle. *)

type via =
  | Start
  | Comm_dep of { from_rank : int }
  | Coll_jump of { from_rank : int }
  | Control_dep
  | Data_dep
  | Def_use  (** explicit def-use edge recorded by the Datadep pass *)

type step = { rank : int; vertex : int; via : via }
type path = step list

type config = {
  prune_non_wait : bool;  (** keep only comm edges that waited (paper) *)
  max_steps : int;
  follow_def_use : bool;
      (** step along recorded def-use edges instead of sibling order
          when the vertex has one (off = paper-faithful Algorithm 1) *)
}

val default_config : config
val via_name : via -> string

(** [backtrack ppg ~visited ~start_rank ~start_vertex] — one walk;
    [visited] accumulates scanned (rank, vertex) pairs across walks
    (Algorithm 1's set V). *)
val backtrack :
  ?config:config ->
  Scalana_ppg.Ppg.t ->
  visited:(int * int, unit) Hashtbl.t ->
  start_rank:int ->
  start_vertex:int ->
  path

(** Ranks touched, in order of first appearance. *)
val ranks_of : path -> int list

(** The one printer of a backtracking path: a [[rN] label @loc (via)]
    line per step, each after the first prefixed [<- ]; [resolve] gives
    a step's label and location. *)
val pp_steps :
  ('a -> step * string * Scalana_mlang.Loc.t) -> 'a list Fmt.t

(** {!pp_steps} over a raw path, labels and locations from the PSG. *)
val pp_path : Scalana_psg.Psg.t -> path Fmt.t
