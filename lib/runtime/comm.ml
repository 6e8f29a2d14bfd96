(* Message matching and collective synchronization.

   Implements the standard MPI two-queue model per receiver (posted
   receives vs unexpected messages) with tag/source wildcards and
   non-overtaking order, an eager/rendezvous protocol switch, and
   sequence-numbered collective instances with full-synchronization cost
   semantics.  The [on_complete] callback lets the scheduler wake blocked
   processes the moment a request completes.

   This is the simulator's hottest data structure, so the representation
   is allocation-free on the matching path: queues are flat arrays with
   tombstoned removal (matching marks an entry dead in place; slots are
   reclaimed in bulk when a queue next needs room), wildcards are
   sentinel integers rather than options, absent messages/requests are
   cyclic [nil_message]/[nil_request] sentinels compared physically, and
   exact-match receives carry a packed (src, tag) key so the common
   non-wildcard probe is a single integer comparison.  Collective
   instances accumulate a count and a running latest-arrival instead of
   an arrival list, which turns the per-collective cost from O(nprocs^2)
   to O(nprocs) — the seed engine's dominant term at np >= 4096. *)

open Scalana_mlang

type message = {
  msg_src : int;
  msg_dst : int;
  msg_tag : int;
  msg_bytes : int;
  msg_key : int;  (* packed (src, tag), -1 when the tag doesn't pack *)
  send_seq : int;
  send_time : float;
  mutable arrival : float;  (* infinity until scheduled (rendezvous) *)
  send_loc : Loc.t;
  send_site : int;  (* the sender's call-context site, see [Exec] *)
  eager : bool;
  mutable sender_req : request;  (* [nil_request] = none *)
  mutable consumed : bool;  (* tombstone in the unexpected queue *)
}

and request = {
  req_id : int;
  req_rank : int;
  req_kind : [ `Send | `Recv ];
  post_time : float;
  want_src : int;  (* [any_src] = MPI_ANY_SOURCE *)
  want_tag : int;  (* [any_tag] = MPI_ANY_TAG *)
  req_key : int;  (* packed exact (src, tag), -1 when wildcarded *)
  req_bytes : int;
  req_loc : Loc.t;
  mutable completed : bool;  (* tombstone in the posted queue *)
  mutable completion : float;
  mutable matched : message;  (* [nil_message] = none *)
  mutable waiter : int;  (* blocked rank to wake on completion, -1 = none *)
}

(* Wildcard sentinels.  [min_int] cannot be produced by a program's
   source/tag expression in practice, and explicit sources are validated
   into [0, nprocs) anyway. *)
let any_src = min_int
let any_tag = min_int

let rec nil_message =
  {
    msg_src = -1;
    msg_dst = -1;
    msg_tag = 0;
    msg_bytes = 0;
    msg_key = -1;
    send_seq = 0;
    send_time = 0.0;
    arrival = 0.0;
    send_loc = Loc.none;
    send_site = 0;
    eager = true;
    sender_req = nil_request;
    consumed = true;
  }

and nil_request =
  {
    req_id = 0;
    req_rank = -1;
    req_kind = `Send;
    post_time = 0.0;
    want_src = any_src;
    want_tag = any_tag;
    req_key = -1;
    req_bytes = 0;
    req_loc = Loc.none;
    completed = true;
    completion = 0.0;
    matched = nil_message;
    waiter = -1;
  }

let has_matched (r : request) = r.matched != nil_message

(* Packed (src, tag) fast path: when both fit in 30 bits the pair packs
   into one non-negative int, and two packed keys are equal iff the
   pairs are.  Out-of-range tags fall back to field comparison — the
   pack condition is identical on both sides, so a packed request key
   can never equal an unpackable message key. *)
let key_bits = 30
let key_max = (1 lsl key_bits) - 1

let pack_key src tag =
  if src >= 0 && src <= key_max && tag >= 0 && tag <= key_max then
    (src lsl key_bits) lor tag
  else -1

(* --- flat queues with tombstoned removal --- *)

type 'a dq = {
  mutable buf : 'a array;
  mutable head : int;  (* first possibly-live slot *)
  mutable tail : int;  (* one past the last slot in use *)
  dummy : 'a;
}

let dq_create dummy = { buf = Array.make 4 dummy; head = 0; tail = 0; dummy }

(* Drop dead entries in order; grow only when mostly live.  In-place
   compaction is safe because the write index never passes the read
   index. *)
let dq_compact dead q =
  let live = ref 0 in
  for i = q.head to q.tail - 1 do
    if not (dead q.buf.(i)) then incr live
  done;
  let cap = Array.length q.buf in
  let buf = if 2 * !live >= cap then Array.make (2 * cap) q.dummy else q.buf in
  let j = ref 0 in
  for i = q.head to q.tail - 1 do
    let x = q.buf.(i) in
    if not (dead x) then begin
      buf.(!j) <- x;
      incr j
    end
  done;
  if buf == q.buf then
    for i = !j to q.tail - 1 do
      q.buf.(i) <- q.dummy
    done;
  q.buf <- buf;
  q.head <- 0;
  q.tail <- !j

let dq_push dead q x =
  if q.tail = Array.length q.buf then dq_compact dead q;
  q.buf.(q.tail) <- x;
  q.tail <- q.tail + 1

let msg_dead (m : message) = m.consumed
let req_dead (r : request) = r.completed

type t = {
  net : Network.t;
  nprocs : int;
  unexpected : message dq array;  (* per destination, send order *)
  posted : request dq array;  (* per receiver, post order *)
  colls : (int, coll) Hashtbl.t;  (* in-flight instances by sequence *)
  mutable msg_seq : int;
  mutable req_seq : int;
  mutable on_complete : request -> unit;
  mutable messages_sent : int;
  mutable bytes_sent : float;
}

and coll = {
  coll_seq : int;
  coll_kind : Ast.mpi_call;
  coll_bytes : int;
  mutable n_arrived : int;
  mutable max_arrival : float;  (* chronologically-latest max so far *)
  mutable finished : bool;
  mutable start_time : float;
  mutable finish_time : float;
  mutable last_arrival_rank : int;
  mutable waiters : int list;  (* blocked ranks, newest first *)
}

let create ~net ~nprocs =
  {
    net;
    nprocs;
    unexpected = Array.init nprocs (fun _ -> dq_create nil_message);
    posted = Array.init nprocs (fun _ -> dq_create nil_request);
    colls = Hashtbl.create 64;
    msg_seq = 0;
    req_seq = 0;
    on_complete = (fun _ -> ());
    messages_sent = 0;
    bytes_sent = 0.0;
  }

let set_on_complete t f = t.on_complete <- f

let complete t req ~at =
  req.completed <- true;
  req.completion <- at;
  t.on_complete req

let matches (req : request) (msg : message) =
  if req.req_key >= 0 then req.req_key = msg.msg_key
  else
    (req.want_src = any_src || req.want_src = msg.msg_src)
    && (req.want_tag = any_tag || req.want_tag = msg.msg_tag)

(* Join a message with a posted receive and complete both sides.  The
   message becomes a tombstone in whichever queue holds it. *)
let consume t (req : request) (msg : message) =
  msg.consumed <- true;
  req.matched <- msg;
  if msg.eager then
    (* transfer was already in flight; the receive sees it at arrival *)
    complete t req ~at:(Float.max req.post_time msg.arrival)
  else begin
    (* rendezvous: transfer starts when both sides are ready *)
    let start = Float.max req.post_time msg.send_time in
    let arrival = start +. Network.transfer_time t.net msg.msg_bytes in
    msg.arrival <- arrival;
    let sreq = msg.sender_req in
    if sreq != nil_request && not sreq.completed then
      complete t sreq ~at:arrival;
    complete t req ~at:arrival
  end

let fresh_req t =
  t.req_seq <- t.req_seq + 1;
  t.req_seq

(* Post a send at [time]; returns the sender-side request (already
   completed for eager messages). *)
let send t ~src ~dst ~tag ~bytes ~time ~loc ~site =
  if dst < 0 || dst >= t.nprocs then
    Fmt.invalid_arg "send to rank %d outside 0..%d (%s)" dst (t.nprocs - 1)
      (Loc.to_string loc);
  t.msg_seq <- t.msg_seq + 1;
  t.messages_sent <- t.messages_sent + 1;
  t.bytes_sent <- t.bytes_sent +. float_of_int bytes;
  let eager = Network.is_eager t.net bytes in
  let msg =
    {
      msg_src = src;
      msg_dst = dst;
      msg_tag = tag;
      msg_bytes = bytes;
      msg_key = pack_key src tag;
      send_seq = t.msg_seq;
      send_time = time;
      arrival =
        (if eager then time +. Network.transfer_time t.net bytes else infinity);
      send_loc = loc;
      send_site = site;
      eager;
      sender_req = nil_request;
      consumed = false;
    }
  in
  let sreq =
    {
      req_id = fresh_req t;
      req_rank = src;
      req_kind = `Send;
      post_time = time;
      want_src = any_src;
      want_tag = any_tag;
      req_key = -1;
      req_bytes = bytes;
      req_loc = loc;
      completed = eager;
      completion = (if eager then time else infinity);
      matched = msg;
      waiter = -1;
    }
  in
  msg.sender_req <- sreq;
  (* match against posted receives of the destination, FIFO *)
  let q = t.posted.(dst) in
  while q.head < q.tail && (q.buf.(q.head)).completed do
    q.buf.(q.head) <- nil_request;
    q.head <- q.head + 1
  done;
  let i = ref q.head in
  let matched = ref false in
  while (not !matched) && !i < q.tail do
    let r = q.buf.(!i) in
    if (not r.completed) && matches r msg then begin
      consume t r msg;
      matched := true
    end
    else incr i
  done;
  if not !matched then dq_push msg_dead t.unexpected.(dst) msg;
  sreq

(* Post a receive at [time]; returns the request (already completed when
   a matching unexpected message was waiting). *)
let post_recv t ~rank ~src ~tag ~bytes ~time ~loc =
  if src <> any_src && (src < 0 || src >= t.nprocs) then
    Fmt.invalid_arg "recv from rank %d outside 0..%d (%s)" src (t.nprocs - 1)
      (Loc.to_string loc);
  let req =
    {
      req_id = fresh_req t;
      req_rank = rank;
      req_kind = `Recv;
      post_time = time;
      want_src = src;
      want_tag = tag;
      req_key =
        (if src <> any_src && tag <> any_tag then pack_key src tag else -1);
      req_bytes = bytes;
      req_loc = loc;
      completed = false;
      completion = infinity;
      matched = nil_message;
      waiter = -1;
    }
  in
  let q = t.unexpected.(rank) in
  while q.head < q.tail && (q.buf.(q.head)).consumed do
    q.buf.(q.head) <- nil_message;
    q.head <- q.head + 1
  done;
  let i = ref q.head in
  let matched = ref false in
  while (not !matched) && !i < q.tail do
    let m = q.buf.(!i) in
    if (not m.consumed) && matches req m then begin
      consume t req m;
      matched := true
    end
    else incr i
  done;
  if not !matched then dq_push req_dead t.posted.(rank) req;
  req

(* Constructor identity of an MPI call, for the cheap collective
   mismatch check (codes are distinct per constructor, so equal codes
   iff equal [Ast.mpi_name]s). *)
let kind_code : Ast.mpi_call -> int = function
  | Ast.Send _ -> 0
  | Ast.Recv _ -> 1
  | Ast.Isend _ -> 2
  | Ast.Irecv _ -> 3
  | Ast.Wait _ -> 4
  | Ast.Waitall _ -> 5
  | Ast.Sendrecv _ -> 6
  | Ast.Barrier -> 7
  | Ast.Bcast _ -> 8
  | Ast.Reduce _ -> 9
  | Ast.Allreduce _ -> 10
  | Ast.Alltoall _ -> 11
  | Ast.Allgather _ -> 12

(* Register arrival of [rank] at the [seq]-th collective call.  Returns
   the instance; when this arrival is the last one the instance is
   finalized (start/finish times set, [finished] = true) and dropped
   from the in-flight table.  The latest arrival is tracked as a
   running (count, max, argmax) triple; [>=] keeps the chronologically
   last rank among ties, matching the historical fold over a
   newest-first arrival list. *)
let coll_arrive t ~seq ~rank ~time ~kind ~bytes =
  let c =
    match Hashtbl.find_opt t.colls seq with
    | Some c ->
        if kind_code c.coll_kind <> kind_code kind then
          Fmt.invalid_arg
            "collective mismatch at sequence %d: rank %d calls %s, others %s"
            seq rank (Ast.mpi_name kind)
            (Ast.mpi_name c.coll_kind);
        c
    | None ->
        let c =
          {
            coll_seq = seq;
            coll_kind = kind;
            coll_bytes = bytes;
            n_arrived = 0;
            max_arrival = neg_infinity;
            finished = false;
            start_time = 0.0;
            finish_time = 0.0;
            last_arrival_rank = -1;
            waiters = [];
          }
        in
        Hashtbl.replace t.colls seq c;
        c
  in
  c.n_arrived <- c.n_arrived + 1;
  if time >= c.max_arrival then begin
    c.max_arrival <- time;
    c.last_arrival_rank <- rank
  end;
  if c.n_arrived = t.nprocs then begin
    c.start_time <- c.max_arrival;
    c.finish_time <-
      c.max_arrival +. Network.collective_time t.net ~nprocs:t.nprocs ~bytes kind;
    c.finished <- true;
    Hashtbl.remove t.colls seq
  end;
  c

let pending_summary t =
  let buf = Buffer.create 128 in
  Array.iteri
    (fun rank (q : request dq) ->
      for i = q.head to q.tail - 1 do
        let r = q.buf.(i) in
        if not r.completed then
          Buffer.add_string buf
            (Printf.sprintf "  rank %d: recv posted at %s (src=%s tag=%s)\n"
               rank (Loc.to_string r.req_loc)
               (if r.want_src = any_src then "any" else string_of_int r.want_src)
               (if r.want_tag = any_tag then "any" else string_of_int r.want_tag))
      done)
    t.posted;
  Array.iteri
    (fun rank (q : message dq) ->
      for i = q.head to q.tail - 1 do
        let m = q.buf.(i) in
        if not m.consumed then
          Buffer.add_string buf
            (Printf.sprintf "  rank %d: unconsumed msg from %d tag %d (%s)\n"
               rank m.msg_src m.msg_tag (Loc.to_string m.send_loc))
      done)
    t.unexpected;
  Buffer.contents buf
