(** Critical-path analysis over a rank timeline (the Chen & Clapp-style
    extension the paper's related work discusses): the longest
    dependence chain through per-rank interval sequences and
    message/collective edges, aggregated by PSG vertex.

    Complements backtracking: backtracking explains *who caused a wait*;
    the critical path shows *which code bounds the runtime*. *)

open Scalana_psg
open Scalana_profile

type segment = {
  seg_rank : int;
  seg_vertex : int option;  (** contracted-PSG vertex, when resolvable *)
  seg_location : string;  (** [Vertex.label @ loc], the aggregation key *)
  seg_seconds : float;  (** non-waiting time on the chain *)
}

type t = {
  total : float;
  segments : segment list;  (** chronological *)
  by_location : (string * float) list;  (** aggregated, largest first *)
  partial : bool;
      (** the chain may be short: the timeline dropped events to its
          cap, or the walk ran out of its step budget *)
}

(** A wait longer than 0.1 ms is a binding remote dependence: the chain
    crosses to the peer it waited on.  [psg] names the vertices. *)
val analyze : psg:Psg.t -> Timeline.t -> t

val top : ?n:int -> t -> (string * float) list
