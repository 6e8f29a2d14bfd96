(* Critical-path analysis over a rank timeline — the extension the
   paper's related work points at (Chen & Clapp's critical-path
   candidates).

   The timeline is a DAG: intervals of one rank are ordered
   sequentially, and each receive-like interval depends on its matched
   sends.  The critical path is the longest dependence chain ending at
   the last interval; time a PSG vertex contributes to that chain
   (excluding waiting, which is slack by definition) indicates where
   optimization shortens the run.

   ScalAna's backtracking answers "who caused this wait"; critical-path
   analysis answers "which code bounds the total runtime" — the two
   agree on the planted pathologies, which the test suite checks. *)

open Scalana_mlang
open Scalana_psg
open Scalana_profile

type segment = {
  seg_rank : int;
  seg_vertex : int option;
  seg_location : string;  (* "label@loc", the aggregation key *)
  seg_seconds : float;  (* non-waiting time on the critical path *)
}

type t = {
  total : float;  (* end-to-end critical path length *)
  segments : segment list;  (* chronological *)
  by_location : (string * float) list;  (* aggregated, largest first *)
  partial : bool;
}

(* The smallest wait treated as a binding remote dependence. *)
let hop_epsilon = 1e-4

(* Steps the backward walk may take before giving up. *)
let step_budget = 200_000

let location psg (iv : Timeline.interval) =
  match Option.bind iv.iv_vertex (Psg.vertex_opt psg) with
  | Some v -> Printf.sprintf "%s@%s" (Vertex.label v) (Loc.to_string v.loc)
  | None -> (
      match iv.iv_kind with
      | Timeline.Compute { label } -> Option.value label ~default:"comp" ^ "@?"
      | Timeline.Mpi m -> m.op ^ "@?")

let wait_of (iv : Timeline.interval) =
  match iv.iv_kind with Timeline.Mpi m -> m.wait | Timeline.Compute _ -> 0.0

(* The rank a blocked interval waited on, if the wait binds the chain:
   the first matched sender, else a collective's last arrival. *)
let binding_peer (iv : Timeline.interval) =
  match iv.iv_kind with
  | Timeline.Mpi { wait; deps = (peer, _, _) :: _; _ } when wait > hop_epsilon
    ->
      Some peer
  | Timeline.Mpi { wait; coll = Some c; _ } when wait > hop_epsilon ->
      Some c.coll_last_rank
  | _ -> None

(* Walk backwards from the interval finishing last: at a receive-like
   interval that waited, the chain crosses to the peer's latest interval
   finishing by our end time; otherwise it continues with the rank's
   previous interval.  A rank's intervals are one contiguous run of
   [tl.intervals], sorted by start, so both moves are index arithmetic
   or a binary search. *)
let analyze ~psg (tl : Timeline.t) =
  let ivs = tl.intervals in
  let n = Array.length ivs in
  let first = Array.make (tl.nprocs + 1) n in
  for i = n - 1 downto 0 do
    first.(ivs.(i).iv_rank) <- i
  done;
  for r = tl.nprocs - 1 downto 0 do
    first.(r) <- min first.(r) first.(r + 1)
  done;
  (* the latest interval of [rank] ending by [before] *)
  let latest_ending rank ~before =
    let lo = ref first.(rank) and hi = ref first.(rank + 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ivs.(mid).iv_stop <= before then lo := mid + 1 else hi := mid
    done;
    if !lo > first.(rank) then Some (!lo - 1) else None
  in
  let visited = Array.make n false in
  let segments = ref [] in
  let exhausted = ref false in
  let rec walk i budget =
    if budget <= 0 then exhausted := true
    else if not visited.(i) then begin
      visited.(i) <- true;
      let iv = ivs.(i) in
      let own = Float.max 0.0 (iv.iv_stop -. iv.iv_start -. wait_of iv) in
      if own > 0.0 then
        segments :=
          {
            seg_rank = iv.iv_rank;
            seg_vertex = iv.iv_vertex;
            seg_location = location psg iv;
            seg_seconds = own;
          }
          :: !segments;
      match binding_peer iv with
      | Some peer when peer <> iv.iv_rank -> (
          (* the wait was bounded by the peer's progress *)
          match latest_ending peer ~before:(iv.iv_stop +. 1e-12) with
          | Some j -> walk j (budget - 1)
          | None -> ())
      | _ ->
          (* no binding remote dependence: the chain continues with
             whatever this rank did before this interval *)
          if i > first.(iv.iv_rank) then walk (i - 1) (budget - 1)
    end
  in
  if n > 0 then begin
    let final = ref 0 in
    Array.iteri
      (fun i (iv : Timeline.interval) ->
        if iv.iv_stop > ivs.(!final).iv_stop then final := i)
      ivs;
    walk !final step_budget
  end;
  let segs = !segments in
  let agg : (string, float) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      Hashtbl.replace agg s.seg_location
        (Option.value (Hashtbl.find_opt agg s.seg_location) ~default:0.0
        +. s.seg_seconds))
    segs;
  let by_location =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg []
    |> List.sort (fun (ka, a) (kb, b) -> compare (b, ka) (a, kb))
  in
  {
    total = List.fold_left (fun acc s -> acc +. s.seg_seconds) 0.0 segs;
    segments = segs;
    by_location;
    partial = !exhausted || Timeline.total_dropped tl > 0;
  }

let top ?(n = 5) t = List.filteri (fun i _ -> i < n) t.by_location
