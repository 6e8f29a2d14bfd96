(* The artifact of one profiled run, stored by column.

   The profiler's hooks add straight into this store: a vertex row holds
   one flat per-rank array per performance-vector component, allocated
   on its first write ([||] until then, so MPI vertices carry no counter
   columns and computation vertices no wait columns).  Rows appear in
   the order the profiler first resolves their vertex; Ppg.build
   compacts them to the touched vertices in ascending id order.

   Dependence records (graph-guided compression, Section III-B2) live in
   flat int tables: a key is four ints (a p2p edge's receiving cell,
   sending cell, tag and bytes with cell = row * nprocs + rank, or a
   collective histogram's row and last-arriving rank) found by open
   addressing, so a repeated record allocates nothing.

   [seq] numbers each rank's cells in first-report order and key ids
   count up in first-record order: Ppg.build replays from them the
   orders the boxed hash-table store this replaced folded in. *)

open Scalana_runtime

type icall_resolution = { callsite_vertex : int; target : string }

type row = {
  vid : int;
  mutable time : float array;
  mutable samples : int array;
  mutable tot_ins : float array;
  mutable tot_lst_ins : float array;
  mutable tot_cyc : float array;
  mutable cache_miss : float array;
  mutable fp_ins : float array;
  mutable wait : float array;
  mutable calls : int array;
  seq : int array;
}

type keys = {
  mutable k : int array;  (* key of id [i] at [4i .. 4i+3] *)
  mutable n : int;
  mutable slots : int array;  (* id + 1, 0 = empty; power-of-two length *)
}

type t = {
  nprocs : int;
  mutable rows : row array;
  mutable row_of_vid : int array;
  reported : int array;
  p2p : keys;
  mutable p2p_hits : int array;
  mutable p2p_waited : int array;
  mutable p2p_max_wait : float array;
  coll : keys;
  mutable coll_hits : int array;
  icalls : (icall_resolution, unit) Hashtbl.t;
  mutable raw_records : int;
  mutable total_samples : int;
  mutable unattributed_samples : int;
  mutable elapsed : float;
  mutable mpi_calls_seen : int;
  mutable records_taken : int;
  mutable effective_nprocs : float;
}

(* [a] with room for [n] elements, new slots set to [x]. *)
let grow a n x =
  let len = Array.length a in
  if n <= len then a
  else begin
    let b = Array.make (max n (2 * len)) x in
    Array.blit a 0 b 0 len;
    b
  end

let cell a rank = if Array.length a = 0 then 0.0 else a.(rank)

(* --- four-int keys by open addressing --- *)

let mix h x =
  let h = (h lxor x) * 0x2127599bf4325c37 in
  h lxor (h lsr 29)

let new_keys () = { k = [||]; n = 0; slots = [||] }

(* The slot holding the key, or the empty slot where it belongs. *)
let slot_of ks a b c d =
  let mask = Array.length ks.slots - 1 in
  let i = ref (mix (mix (mix (mix 0 a) b) c) d land mask) in
  let found = ref false in
  while not !found do
    let o = 4 * (ks.slots.(!i) - 1) in
    if o < 0 || (ks.k.(o) = a && ks.k.(o + 1) = b && ks.k.(o + 2) = c
                 && ks.k.(o + 3) = d)
    then found := true
    else i := (!i + 1) land mask
  done;
  !i

(* The key's id, allocated (as [ks.n] before the call) on first sight;
   the slot index is rebuilt whenever it would pass half full. *)
let key_id ks a b c d =
  if 2 * (ks.n + 1) > Array.length ks.slots then begin
    let len = ref 16 in
    while !len < 4 * (ks.n + 1) do len := 2 * !len done;
    ks.slots <- Array.make !len 0;
    for id = 0 to ks.n - 1 do
      let o = 4 * id in
      let i = slot_of ks ks.k.(o) ks.k.(o + 1) ks.k.(o + 2) ks.k.(o + 3) in
      ks.slots.(i) <- id + 1
    done
  end;
  let i = slot_of ks a b c d in
  if ks.slots.(i) > 0 then ks.slots.(i) - 1
  else begin
    let id = ks.n in
    ks.k <- grow ks.k ((4 * id) + 4) 0;
    Array.blit [| a; b; c; d |] 0 ks.k (4 * id) 4;
    ks.slots.(i) <- id + 1;
    ks.n <- id + 1;
    id
  end

(* --- rows --- *)

let create ~nprocs =
  {
    nprocs; rows = [||]; row_of_vid = [||];
    reported = Array.make nprocs 0;
    p2p = new_keys (); p2p_hits = [||]; p2p_waited = [||]; p2p_max_wait = [||];
    coll = new_keys (); coll_hits = [||];
    icalls = Hashtbl.create 8;
    raw_records = 0; total_samples = 0; unattributed_samples = 0;
    elapsed = 0.0; mpi_calls_seen = 0; records_taken = 0;
    effective_nprocs = float_of_int nprocs;
  }

let row_index t ~vertex =
  if vertex < Array.length t.row_of_vid && t.row_of_vid.(vertex) >= 0 then
    t.row_of_vid.(vertex)
  else begin
    let r = Array.length t.rows and e = [||] in
    let row =
      { vid = vertex; time = e; samples = [||]; tot_ins = e; tot_lst_ins = e;
        tot_cyc = e; cache_miss = e; fp_ins = e; wait = e; calls = [||];
        seq = Array.make t.nprocs 0 }
    in
    t.rows <- Array.append t.rows [| row |];
    t.row_of_vid <- grow t.row_of_vid (vertex + 1) (-1);
    t.row_of_vid.(vertex) <- r;
    r
  end

let find_row t ~vertex =
  match t.row_of_vid.(vertex) with
  | r when r >= 0 -> Some t.rows.(r)
  | _ | (exception Invalid_argument _) -> None

(* The rank reports on this row: number the cell on first report. *)
let report t (r : row) rank =
  if r.seq.(rank) = 0 then begin
    t.reported.(rank) <- t.reported.(rank) + 1;
    r.seq.(rank) <- t.reported.(rank)
  end

(* The first write to a column group allocates it. *)
let add_sampled t ~row ~rank ~time ~samples =
  let r = t.rows.(row) in
  report t r rank;
  if Array.length r.time = 0 then begin
    r.time <- Array.make t.nprocs 0.0;
    r.samples <- Array.make t.nprocs 0
  end;
  r.time.(rank) <- r.time.(rank) +. time;
  r.samples.(rank) <- r.samples.(rank) + samples

let add_pmu t ~row ~rank ~k (pmu : Pmu.t) =
  let r = t.rows.(row) in
  if Array.length r.tot_ins = 0 then begin
    let col () = Array.make t.nprocs 0.0 in
    r.tot_ins <- col (); r.tot_lst_ins <- col (); r.tot_cyc <- col ();
    r.cache_miss <- col (); r.fp_ins <- col ()
  end;
  r.tot_ins.(rank) <- r.tot_ins.(rank) +. (k *. pmu.tot_ins);
  r.tot_lst_ins.(rank) <- r.tot_lst_ins.(rank) +. (k *. pmu.tot_lst_ins);
  r.tot_cyc.(rank) <- r.tot_cyc.(rank) +. (k *. pmu.tot_cyc);
  r.cache_miss.(rank) <- r.cache_miss.(rank) +. (k *. pmu.cache_miss);
  r.fp_ins.(rank) <- r.fp_ins.(rank) +. (k *. pmu.fp_ins)

let add_wait t ~row ~rank ~calls wait =
  let r = t.rows.(row) in
  report t r rank;
  if Array.length r.wait = 0 then begin
    r.wait <- Array.make t.nprocs 0.0;
    r.calls <- Array.make t.nprocs 0
  end;
  r.wait.(rank) <- r.wait.(rank) +. wait;
  r.calls.(rank) <- r.calls.(rank) + calls

(* --- dependence records --- *)

let add_edge t ~recv_cell ~send_cell ~tag ~bytes ~hits ~waited ~max_wait =
  let n0 = t.p2p.n in
  let id = key_id t.p2p recv_cell send_cell tag bytes in
  if id = n0 then begin
    t.p2p_hits <- grow t.p2p_hits (id + 1) 0;
    t.p2p_waited <- grow t.p2p_waited (id + 1) 0;
    t.p2p_max_wait <- grow t.p2p_max_wait (id + 1) 0.0;
    t.p2p_max_wait.(id) <- max_wait
  end
  else t.p2p_max_wait.(id) <- Float.max t.p2p_max_wait.(id) max_wait;
  t.p2p_hits.(id) <- t.p2p_hits.(id) + hits;
  t.p2p_waited.(id) <- t.p2p_waited.(id) lor waited

let record_p2p t ~recv_row ~recv_rank ~send_row ~send_rank ~tag ~bytes ~waited
    ~wait_seconds =
  t.raw_records <- t.raw_records + 1;
  add_edge t
    ~recv_cell:((recv_row * t.nprocs) + recv_rank)
    ~send_cell:((send_row * t.nprocs) + send_rank)
    ~tag ~bytes ~hits:1
    ~waited:(if waited then 1 else 0)
    ~max_wait:wait_seconds

let add_coll t ~row ~rank n =
  let id = key_id t.coll row rank 0 0 in
  t.coll_hits <- grow t.coll_hits (id + 1) 0;
  t.coll_hits.(id) <- t.coll_hits.(id) + n

let record_coll t ~row ~last_arrival_rank =
  t.raw_records <- t.raw_records + 1;
  add_coll t ~row ~rank:last_arrival_rank 1

let record_icall t ~callsite_vertex ~target =
  Hashtbl.replace t.icalls { callsite_vertex; target } ()

let icall_resolutions t =
  Hashtbl.fold (fun r () acc -> r :: acc) t.icalls []

let p2p_key t id =
  let k = t.p2p.k and o = 4 * id and np = t.nprocs in
  (k.(o) mod np, k.(o) / np, k.(o + 1) mod np, k.(o + 1) / np, k.(o + 2), k.(o + 3))

let coll_entries t =
  List.init t.coll.n (fun id -> (id, t.coll.k.(4 * id), t.coll.k.((4 * id) + 1)))

let n_p2p t = t.p2p.n

let n_coll t =
  List.length (List.sort_uniq compare (List.map (fun (_, row, _) -> row) (coll_entries t)))

(* Drop spare capacity and the key lookup index (rebuilt by the next
   record): what a finished run keeps alive and writes to disk. *)
let trim t =
  List.iter (fun ks -> ks.k <- Array.sub ks.k 0 (4 * ks.n); ks.slots <- [||]) [ t.p2p; t.coll ];
  t.p2p_hits <- Array.sub t.p2p_hits 0 t.p2p.n;
  t.p2p_waited <- Array.sub t.p2p_waited 0 t.p2p.n;
  t.p2p_max_wait <- Array.sub t.p2p_max_wait 0 t.p2p.n;
  t.coll_hits <- Array.sub t.coll_hits 0 t.coll.n

(* --- whole-profile views --- *)

let touched_vertices t =
  Array.to_list t.rows
  |> List.filter (fun (r : row) -> Array.exists (fun s -> s > 0) r.seq)
  |> List.map (fun (r : row) -> r.vid)
  |> List.sort compare

let pmu_of (r : row) rank =
  let c a = cell a rank in
  { Pmu.tot_ins = c r.tot_ins; tot_lst_ins = c r.tot_lst_ins;
    tot_cyc = c r.tot_cyc; cache_miss = c r.cache_miss; fp_ins = c r.fp_ins }

let pmu t ~rank ~vertex =
  match find_row t ~vertex with
  | Some r when r.seq.(rank) > 0 -> Some (pmu_of r rank)
  | _ -> None

(* Fold one elastic epoch's profile (local ranks [0, src.nprocs)) into
   the session-wide artifact, local rank [l] landing on global [map l].
   Cells go in ascending vertex order and records in sorted key order,
   so each destination rank numbers its new cells, and each table its
   new keys, as a function of content alone. *)
let merge_renumbered ~into ~map (src : t) =
  let by_vid = Array.copy src.rows in
  Array.sort (fun (a : row) (b : row) -> compare a.vid b.vid) by_vid;
  Array.iter
    (fun (s : row) ->
      let row = row_index into ~vertex:s.vid in
      for l = 0 to src.nprocs - 1 do
        if s.seq.(l) > 0 then begin
          let rank = map l in
          if Array.length s.time > 0 then
            add_sampled into ~row ~rank ~time:s.time.(l) ~samples:s.samples.(l);
          if Array.length s.tot_ins > 0 then add_pmu into ~row ~rank ~k:1.0 (pmu_of s l);
          if Array.length s.wait > 0 then
            add_wait into ~row ~rank ~calls:s.calls.(l) s.wait.(l)
        end
      done)
    by_vid;
  let vid row = src.rows.(row).vid in
  let cell ~vertex ~rank = (row_index into ~vertex * into.nprocs) + map rank in
  List.init (n_p2p src) (fun id ->
      let recv_rank, recv_row, send_rank, send_row, tag, bytes = p2p_key src id in
      ((recv_rank, vid recv_row, send_rank, vid send_row, tag, bytes), id))
  |> List.sort compare
  |> List.iter (fun ((recv_rank, recv_vid, send_rank, send_vid, tag, bytes), id) ->
         add_edge into
           ~recv_cell:(cell ~vertex:recv_vid ~rank:recv_rank)
           ~send_cell:(cell ~vertex:send_vid ~rank:send_rank)
           ~tag ~bytes ~hits:src.p2p_hits.(id) ~waited:src.p2p_waited.(id)
           ~max_wait:src.p2p_max_wait.(id));
  List.map (fun (id, row, rank) -> (vid row, rank, id)) (coll_entries src)
  |> List.sort compare
  |> List.iter (fun (v, rank, id) ->
         add_coll into ~row:(row_index into ~vertex:v) ~rank:(map rank)
           src.coll_hits.(id));
  List.sort compare (icall_resolutions src)
  |> List.iter (fun r -> Hashtbl.replace into.icalls r ());
  into.raw_records <- into.raw_records + src.raw_records;
  into.total_samples <- into.total_samples + src.total_samples;
  into.unattributed_samples <- into.unattributed_samples + src.unattributed_samples;
  into.elapsed <- Float.max into.elapsed src.elapsed;
  into.mpi_calls_seen <- into.mpi_calls_seen + src.mpi_calls_seen;
  into.records_taken <- into.records_taken + src.records_taken

(* Size model of the packed records: a p2p record is 6 ints + flags =
   28 B; a collective vertex is vertex + count (12 B) plus 8 B per
   histogram entry. *)
let comm_bytes t = (28 * n_p2p t) + (12 * n_coll t) + (8 * t.coll.n)
let uncompressed_comm_bytes t = 28 * t.raw_records

(* Size model of a performance vector: vertex id + 5 floats + 2 ints,
   packed = 24 B per reported cell. *)
let storage_bytes t =
  (24 * Array.fold_left ( + ) 0 t.reported)
  + comm_bytes t
  + (8 * Hashtbl.length t.icalls)
