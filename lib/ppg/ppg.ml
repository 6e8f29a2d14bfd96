(* Program Performance Graph (Section III-C).

   The per-process PSG is duplicated logically (every rank shares the
   contracted PSG structure, since SPMD processes share the code); the
   PPG adds per-(rank, vertex) performance vectors and the inter-process
   communication-dependence edges recorded at runtime.  Backtracking
   (Scalana_detect.Backtrack) walks this structure.

   The store is columnar: sampled time and exact wait each live in a
   flat row-major column indexed by (row, rank) where a row is one
   touched vertex, so a vertex's across-rank values are one contiguous
   slice and the whole-graph scans the detectors run (aggregation,
   deviation thresholds, log-log fit batches) touch dense float arrays.
   [build] freezes the profiler's rows: the touched ones, in ascending
   vertex order, one blit each.  Cells no rank reported stay 0.0 and
   poisoned cells keep their NaN/negative payloads bit-for-bit. *)

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
  psg : Psg.t;  (* contracted PSG, shared by all ranks *)
  nprocs : int;
  effective_nprocs : float;  (* copied from the profile at build time *)
  (* columnar store: rows are touched vertices in ascending id order,
     cell (row, rank) lives at [row * nprocs + rank] in every column *)
  vids : int array;  (* row -> vertex id, sorted *)
  rows : (int, int) Hashtbl.t;  (* vertex id -> row *)
  times : float array;
  waits : float array;
  row_present : int array;  (* row -> number of reporting ranks *)
  total_time : float;  (* precomputed quarantine-aware whole-run total *)
  (* incoming communication dependence, grouped by receiving cell *)
  in_cells : int array;
  in_edges : comm_edge array;
  coll_late : int array;  (* row -> dominant last-arrival rank, or -1 *)
}

let row t ~vertex = Hashtbl.find_opt t.rows vertex

(* Element offset of [vertex]'s row in every column ([nprocs] wide). *)
let row_offset t ~vertex =
  match row t ~vertex with Some r -> Some (r * t.nprocs) | None -> None

let times_col t = t.times

let cell t col ~rank ~vertex =
  match row t ~vertex with
  | Some r when rank >= 0 && rank < t.nprocs -> col.((r * t.nprocs) + rank)
  | _ -> 0.0

let time_of t = cell t t.times
let wait_of t = cell t t.waits

(* Buckets of a stdlib hash table created with [init] buckets once it
   holds [n] entries: it doubles whenever an add leaves more than two
   entries per bucket. *)
let buckets init n =
  let len = ref init in
  while n > 2 * !len do len := 2 * !len done;
  !len

(* The boxed profile store this PPG once ingested kept one hash table
   per rank (64 buckets), one for the dependence records (256) and one
   per collective histogram (16).  Reports print sums and tie-breaks
   that followed those tables' fold order: buckets in index order,
   newest insertion first within a bucket.  The freeze replays that
   order from [seq] (per-rank insertion order) and the record ids
   (global insertion order). *)
let fold_order ~mask ~hash ~newer a b =
  match Int.compare (hash a land mask) (hash b land mask) with
  | 0 -> Int.compare (newer b) (newer a)
  | c -> c

(* Whole-run sampled time: per rank in fold order, then across ranks;
   poisoned (NaN/negative) values are quarantined, not summed. *)
let fold_order_total (data : Profdata.t) (rows : Profdata.row array) =
  let hashes = Array.map (fun (r : Profdata.row) -> Hashtbl.hash r.vid) rows in
  let total = ref 0.0 in
  for rank = 0 to data.nprocs - 1 do
    let seq i = rows.(i).seq.(rank) in
    let order = List.filter (fun i -> seq i > 0) (List.init (Array.length rows) Fun.id) in
    let mask = buckets 64 data.reported.(rank) - 1 in
    total :=
      !total
      +. List.fold_left
           (fun acc i ->
             let x = Profdata.cell rows.(i).time rank in
             if Float.is_nan x || x < 0.0 then acc else acc +. x)
           0.0
           (List.sort (fold_order ~mask ~hash:(Array.get hashes) ~newer:seq) order)
  done;
  !total

(* Receiving cells with at least one edge. *)
let n_comm_edges t =
  let n = ref 0 in
  Array.iteri (fun i c -> if i = 0 || t.in_cells.(i - 1) <> c then incr n) t.in_cells;
  !n

let build ~(psg : Psg.t) (data : Profdata.t) =
  Scalana_obs.Obs.with_span
    ~args:[ ("nprocs", string_of_int data.Profdata.nprocs) ]
    "ppg.build"
  @@ fun () ->
  let nprocs = data.nprocs and vid row = data.rows.(row).Profdata.vid in
  let present i = Array.fold_left (fun n s -> if s > 0 then n + 1 else n) 0 data.rows.(i).seq in
  let kept =
    List.filter (fun i -> present i > 0) (List.init (Array.length data.rows) Fun.id)
    |> List.sort (fun a b -> Int.compare (vid a) (vid b))
    |> Array.of_list
  in
  let rows = Hashtbl.create (max 16 (Array.length kept)) in
  Array.iteri (fun r i -> Hashtbl.replace rows (vid i) r) kept;
  let col get =
    let c = Array.make (Array.length kept * nprocs) 0.0 in
    Array.iteri
      (fun r i ->
        let a = get data.rows.(i) in
        if Array.length a > 0 then Array.blit a 0 c (r * nprocs) nprocs)
      kept;
    c
  in
  (* incoming edges grouped by receiving cell, in fold order within it *)
  let keys = Array.init (Profdata.n_p2p data) (Profdata.p2p_key data) in
  let mask = buckets 256 (Array.length keys) - 1 in
  let cell =
    Array.map (fun (rr, rrow, _, _, _, _) -> (Hashtbl.find rows (vid rrow) * nprocs) + rr) keys
  in
  let hash id =
    let rr, rrow, sr, srow, tag, bytes = keys.(id) in
    Hashtbl.hash (rr, vid rrow, sr, vid srow, tag, bytes)
  in
  let bucket = Array.init (Array.length keys) hash in
  let ncells = Array.length kept * nprocs in
  let first = Array.make (ncells + 1) 0 in
  Array.iter (fun c -> first.(c + 1) <- first.(c + 1) + 1) cell;
  for c = 1 to ncells do first.(c) <- first.(c) + first.(c - 1) done;
  let fill = Array.sub first 0 ncells and order = Array.make (Array.length keys) 0 in
  Array.iteri
    (fun id c ->
      (* insert into the cell's slots, which stay in fold order *)
      let j = ref fill.(c) in
      while !j > first.(c)
            && fold_order ~mask ~hash:(Array.get bucket) ~newer:Fun.id order.(!j - 1) id > 0
      do
        order.(!j) <- order.(!j - 1);
        decr j
      done;
      order.(!j) <- id;
      fill.(c) <- fill.(c) + 1)
    cell;
  let in_cells = Array.map (Array.get cell) order in
  let edge id =
    let _, _, send_rank, srow, _, _ = keys.(id) in
    { send_rank; send_vertex = vid srow; has_wait = data.p2p_waited.(id) = 1;
      max_wait = data.p2p_max_wait.(id); hits = data.p2p_hits.(id) }
  in
  (* dominant last-arriving rank per collective: the first entry with
     the most hits in fold order *)
  let hist = Array.make (Array.length data.rows) [] in
  List.iter
    (fun (id, row, rank) -> hist.(row) <- (id, rank) :: hist.(row))
    (Profdata.coll_entries data);
  let late entries =
    let mask = buckets 16 (List.length entries) - 1 in
    List.sort (fold_order ~mask ~hash:(fun (_, r) -> Hashtbl.hash r) ~newer:fst) entries
    |> List.fold_left
         (fun (best, n) (id, r) ->
           if data.coll_hits.(id) > n then (r, data.coll_hits.(id)) else (best, n))
         (-1, 0)
    |> fst
  in
  let t =
    {
      psg;
      nprocs;
      effective_nprocs = data.effective_nprocs;
      vids = Array.map vid kept;
      rows;
      times = col (fun r -> r.time);
      waits = col (fun r -> r.wait);
      row_present = Array.map present kept;
      total_time = fold_order_total data (Array.map (Array.get data.rows) kept);
      in_cells;
      in_edges = Array.map edge order;
      coll_late = Array.map (fun i -> late hist.(i)) kept;
    }
  in
  Scalana_obs.Obs.Metrics.incr "ppg.builds";
  Scalana_obs.Obs.Metrics.incr ~by:(Array.length kept) "ppg.vertices";
  Scalana_obs.Obs.Metrics.incr ~by:(n_comm_edges t) "ppg.comm_edges";
  t

let incoming_edges t ~rank ~vertex =
  match row t ~vertex with
  | Some r when rank >= 0 && rank < t.nprocs ->
      let c = (r * t.nprocs) + rank and n = Array.length t.in_cells in
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if t.in_cells.(mid) < c then lo := mid + 1 else hi := mid
      done;
      let rec from i =
        if i < n && t.in_cells.(i) = c then t.in_edges.(i) :: from (i + 1) else []
      in
      from !lo
  | _ -> []

(* Edges that carried an actual wait — the ones backtracking keeps after
   pruning (Section IV-B). *)
let waiting_edges t ~rank ~vertex =
  List.filter (fun e -> e.has_wait) (incoming_edges t ~rank ~vertex)

(* The most critical incoming edge: largest observed wait. *)
let critical_edge t ~rank ~vertex =
  match waiting_edges t ~rank ~vertex with
  | [] -> None
  | l ->
      Some
        (List.fold_left
           (fun best e -> if e.max_wait > best.max_wait then e else best)
           (List.hd l) l)

let coll_late_rank t ~vertex =
  match row t ~vertex with
  | Some r when t.coll_late.(r) >= 0 -> Some t.coll_late.(r)
  | _ -> None

(* Per-rank values of one vertex (0 where untouched): a fresh copy of
   the row slice, so callers may sort or scale it freely. *)
let across_ranks t col ~vertex =
  match row t ~vertex with
  | Some r -> Array.sub col (r * t.nprocs) t.nprocs
  | None -> Array.make t.nprocs 0.0

let times_across_ranks t = across_ranks t t.times
let waits_across_ranks t = across_ranks t t.waits
let total_wait t ~vertex = Array.fold_left ( +. ) 0.0 (waits_across_ranks t ~vertex)

(* Fraction of ranks reporting at [vertex] (degraded-mode coverage).
   Always finite: an all-killed vertex degrades to 0.0, never NaN. *)
let coverage t ~vertex =
  if t.nprocs = 0 then 0.0
  else
    match row t ~vertex with
    | Some r -> float_of_int t.row_present.(r) /. float_of_int t.nprocs
    | None -> 0.0

(* Total sampled time across all ranks and vertices, quarantine-aware;
   precomputed during the ingest pass. *)
let total_time t = t.total_time

(* Bytes retained by the store itself, beyond the profile it was built
   from: the columns plus the dependence edges.  Exact for the columns;
   the memory bench cross-checks the total against a GC live-words
   delta. *)
let storage_bytes t =
  (8 * (Array.length t.times + Array.length t.waits))
  + (8 * (Array.length t.row_present + Array.length t.vids))
  + (8 * Array.length t.coll_late)
  + (64 * Array.length t.in_edges)

(* Vertices any rank reported on, sorted — the detectors' iteration
   domain. *)
let touched_vertices t = Array.to_list t.vids

(* Time-weighted mean membership of the producing session (differs from
   [nprocs] only for elastic runs). *)
let effective_nprocs t = t.effective_nprocs
