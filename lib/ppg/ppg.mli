(** Program Performance Graph (Section III-C): the contracted PSG shared
    by all ranks, per-(rank, vertex) sampled times and waits, and the
    inter-process communication-dependence edges recorded at runtime.

    The store is columnar: times and waits are flat row-major columns
    over (touched vertex, rank) cells, so across-rank reads are
    contiguous slices and detector batches scan dense float arrays.
    Accessors serve exactly the values the boxed profile store served
    (the differential suite in [test/test_ppg.ml] pins this), including
    0.0 for cells no rank reported and verbatim NaN/negative payloads
    for poisoned cells. *)

open Scalana_psg
open Scalana_profile

type comm_edge = {
  send_rank : int;
  send_vertex : int;
  has_wait : bool;
  max_wait : float;
  hits : int;
}

type t = {
  psg : Psg.t;
  nprocs : int;
  effective_nprocs : float;
  vids : int array;  (** row -> vertex id, ascending *)
  rows : (int, int) Hashtbl.t;  (** vertex id -> row *)
  times : float array;  (** cell (row, rank) at [row * nprocs + rank] *)
  waits : float array;
  row_present : int array;  (** row -> number of reporting ranks *)
  total_time : float;
  in_cells : int array;  (** receiving cell of each incoming edge, sorted *)
  in_edges : comm_edge array;
  coll_late : int array;  (** row -> dominant last-arriving rank, or -1 *)
}

(** Freeze a profile: compact its rows to the touched vertices in
    ascending id order, one blit per row and column. *)
val build : psg:Psg.t -> Profdata.t -> t

(** Incoming communication dependence of (rank, vertex). *)
val incoming_edges : t -> rank:int -> vertex:int -> comm_edge list

(** Only edges that carried an actual wait (the pruned set). *)
val waiting_edges : t -> rank:int -> vertex:int -> comm_edge list

(** The waiting edge with the largest observed wait, if any. *)
val critical_edge : t -> rank:int -> vertex:int -> comm_edge option

(** Dominant last-arriving rank at a collective vertex. *)
val coll_late_rank : t -> vertex:int -> int option

val time_of : t -> rank:int -> vertex:int -> float
val wait_of : t -> rank:int -> vertex:int -> float

(** Element offset of [vertex]'s row in every column ([nprocs] cells
    wide), for allocation-free slice scans; [None] when no rank reported
    at [vertex]. *)
val row_offset : t -> vertex:int -> int option

(** The raw columns behind [row_offset] slices.  Read-only by
    convention: mutating them corrupts the store. *)
val times_col : t -> float array

(** Per-rank times of one vertex (0 where untouched) — a fresh copy of
    the row slice, free for the caller to reorder. *)
val times_across_ranks : t -> vertex:int -> float array

val waits_across_ranks : t -> vertex:int -> float array

(** Sampled wait summed across ranks at [vertex] — the profiler-side
    number the timeline-replay wait-state attribution is checked
    against. *)
val total_wait : t -> vertex:int -> float

(** Fraction of ranks reporting at [vertex] (degraded-mode coverage).
    Always finite: 0.0 when every rank was lost, never NaN. *)
val coverage : t -> vertex:int -> float

(** Total sampled time across all ranks and vertices; poisoned
    (NaN/negative) values are quarantined, not summed. *)
val total_time : t -> float

val n_comm_edges : t -> int

(** Bytes retained by the store itself (the columns plus dependence
    edges), beyond the profile it was built from. *)
val storage_bytes : t -> int

(** Vertices any rank reported on, sorted — the detectors' iteration
    domain. *)
val touched_vertices : t -> int list

(** Time-weighted mean membership of the producing session (differs
    from [nprocs] only for elastic runs). *)
val effective_nprocs : t -> float
