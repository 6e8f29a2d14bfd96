(* Attribution index: map a dynamic (call path, source location) pair to
   the contracted-PSG vertex that owns it.

   The runtime walks statements with a dynamic call path (the list of
   call-site locations on the stack).  For statements whose expansion
   exists in the PSG the lookup is exact; samples inside recursive
   re-entries fold onto the first expansion (call paths are truncated
   frame by frame), and samples inside not-yet-refined indirect calls
   attribute to the callsite vertex itself. *)

open Scalana_mlang

type t = {
  tbl : (string, int) Hashtbl.t;
  contracted : Psg.t;
}

let key callpath loc =
  let buf = Buffer.create 64 in
  List.iter
    (fun l ->
      Buffer.add_string buf (Loc.to_string l);
      Buffer.add_char buf '>')
    callpath;
  Buffer.add_string buf (Loc.to_string loc);
  Buffer.contents buf

let build ~(full : Psg.t) ~(contraction : Contract.result) =
  let tbl = Hashtbl.create 1024 in
  Psg.iter
    (fun v ->
      match Contract.new_id contraction v.Vertex.id with
      | Some nid ->
          let k = key v.callpath v.loc in
          if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k nid
      | None -> ())
    full;
  { tbl; contracted = contraction.psg }

(* Refresh after indirect-call refinement added vertices to the
   contracted graph itself: index the new vertices directly. *)
let index_contracted_subtree t root_id =
  List.iter
    (fun id ->
      let v = Psg.vertex t.contracted id in
      let k = key v.Vertex.callpath v.loc in
      if not (Hashtbl.mem t.tbl k) then Hashtbl.add t.tbl k id)
    (Psg.subtree_vertices t.contracted root_id)

let rec find t ~callpath ~loc =
  match Hashtbl.find_opt t.tbl (key callpath loc) with
  | Some id -> Some id
  | None -> (
      (* Fold recursive frames / unresolved indirect frames: retry with
         the innermost frame as the target location. *)
      match List.rev callpath with
      | [] -> None
      | innermost :: rest_rev ->
          let shorter = List.rev rest_rev in
          (match Hashtbl.find_opt t.tbl (key shorter innermost) with
          | Some id -> Some id
          | None -> find t ~callpath:shorter ~loc))

let exact t ~callpath ~loc = Hashtbl.find_opt t.tbl (key callpath loc)
let size t = Hashtbl.length t.tbl

(* Per-run memo of [find] keyed by the simulator's dense site ids
   ([Instrument.ctx.site]): the string key is built once per distinct
   site instead of once per event.  A [None] slot is a site not yet
   resolved; [Some None] caches an unresolved lookup. *)
type memo = { index : t; mutable vids : int option option array }

let memo index = { index; vids = [||] }

let find_site m ~site ~callpath ~loc =
  let n = Array.length m.vids in
  match if site < n then m.vids.(site) else None with
  | Some r -> r
  | None ->
      let r = find m.index ~callpath ~loc in
      if site >= n then begin
        let a = Array.make (max (site + 1) (2 * n)) None in
        Array.blit m.vids 0 a 0 n;
        m.vids <- a
      end;
      m.vids.(site) <- Some r;
      r
