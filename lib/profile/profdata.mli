(** The artifact of one profiled run, stored by column: the profiler's
    hooks add straight into per-vertex rows of flat per-rank arrays,
    dependence records live in flat int tables keyed by packed ints
    (graph-guided compression, Section III-B2), and
    {!Scalana_ppg.Ppg.build} freezes the result.

    A row is one contracted-PSG vertex, in the order the profiler first
    resolved it; cell [(row, rank)] of a column is [row.col.(rank)].  A
    column is [[||]] until its first write. *)

open Scalana_runtime

type icall_resolution = { callsite_vertex : int; target : string }

(** One vertex's cells, [nprocs] wide.  Read-only outside this module. *)
type row = {
  vid : int;
  mutable time : float array;  (** seconds attributed by sampling *)
  mutable samples : int array;
  mutable tot_ins : float array;  (** sampled {!Pmu.t} fields *)
  mutable tot_lst_ins : float array;
  mutable tot_cyc : float array;
  mutable cache_miss : float array;
  mutable fp_ins : float array;
  mutable wait : float array;  (** exact accumulated wait seconds *)
  mutable calls : int array;  (** MPI invocations at this vertex *)
  seq : int array;  (** [k > 0]: the rank's [k]-th reported cell; 0: none *)
}

(** Four-int keys to dense ids, ids in first-insertion order. *)
type keys

type t = {
  nprocs : int;
  mutable rows : row array;
  mutable row_of_vid : int array;  (** vertex id -> row, -1 if none *)
  reported : int array;  (** per rank: number of cells it reported *)
  p2p : keys;  (** (recv cell, send cell, tag, bytes); cell = row * nprocs + rank *)
  mutable p2p_hits : int array;  (** per edge id *)
  mutable p2p_waited : int array;  (** 1 once some instance waited *)
  mutable p2p_max_wait : float array;
  coll : keys;  (** (row, last-arriving rank, 0, 0) *)
  mutable coll_hits : int array;  (** per histogram entry id *)
  icalls : (icall_resolution, unit) Hashtbl.t;
  mutable raw_records : int;  (** dependence records before compression *)
  mutable total_samples : int;
  mutable unattributed_samples : int;
  mutable elapsed : float;
  mutable mpi_calls_seen : int;
  mutable records_taken : int;
  mutable effective_nprocs : float;
      (** time-weighted mean membership of an elastic session, else
          [float_of_int nprocs] *)
}

val create : nprocs:int -> t

(** A cell of a column, 0.0 while the column is unallocated. *)
val cell : float array -> int -> float

(** The row of [vertex], added (empty) on first use. *)
val row_index : t -> vertex:int -> int

val find_row : t -> vertex:int -> row option

(** One sampled span: [time] and [samples] add to the cell. *)
val add_sampled : t -> row:int -> rank:int -> time:float -> samples:int -> unit

(** Its counters: each PMU field adds [k *. field] (the counter rate
    scaled to the sampled time). *)
val add_pmu : t -> row:int -> rank:int -> k:float -> Pmu.t -> unit

(** [calls] MPI calls' exact wait. *)
val add_wait : t -> row:int -> rank:int -> calls:int -> float -> unit

val record_p2p :
  t -> recv_row:int -> recv_rank:int -> send_row:int -> send_rank:int ->
  tag:int -> bytes:int -> waited:bool -> wait_seconds:float -> unit

val record_coll : t -> row:int -> last_arrival_rank:int -> unit
val record_icall : t -> callsite_vertex:int -> target:string -> unit
val icall_resolutions : t -> icall_resolution list

(** Point-to-point edge [id] (ids count up from 0 in first-recorded
    order): [(recv_rank, recv_row, send_rank, send_row, tag, bytes)];
    its counters are [p2p_hits.(id)], [p2p_waited.(id)] and
    [p2p_max_wait.(id)]. *)
val p2p_key : t -> int -> int * int * int * int * int * int

(** Collective histogram entries [(id, row, rank)] in first-recorded
    order; an entry's count is [coll_hits.(id)]. *)
val coll_entries : t -> (int * int * int) list

val n_p2p : t -> int

(** Collective vertices with a histogram. *)
val n_coll : t -> int

(** Vertices with data on any rank, sorted. *)
val touched_vertices : t -> int list

(** The sampled counters of one cell ([None] where the rank never
    reported). *)
val pmu : t -> rank:int -> vertex:int -> Pmu.t option

(** Fold one elastic epoch's profile into the session-wide artifact:
    epoch-local rank [l] lands on global rank [map l].  Counters add,
    [elapsed] takes the max; the destination depends on content alone. *)
val merge_renumbered : into:t -> map:(int -> int) -> t -> unit

(** Drop spare capacity and the record lookup index (rebuilt by the
    next record): what a finished run keeps and writes to disk. *)
val trim : t -> unit

(** Modeled packed size: 24 B per reported cell, 28 B per p2p edge,
    12 B + 8 B per histogram entry per collective vertex, 8 B per
    icall. *)
val storage_bytes : t -> int

(** Bytes of the dependence records, compressed and uncompressed. *)
val comm_bytes : t -> int

val uncompressed_comm_bytes : t -> int
