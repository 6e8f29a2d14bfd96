(* Message matching and collective synchronization.

   Implements the standard MPI two-queue model per receiver (posted
   receives vs unexpected messages) with tag/source wildcards and
   non-overtaking order, an eager/rendezvous protocol switch, and
   sequence-numbered collective instances with full-synchronization cost
   semantics.  The [on_wake] callback lets the scheduler wake a blocked
   process the moment a request it waits on completes.

   This is the simulator's hottest data structure.  In-flight messages
   and requests are int handles into pools of flat stripes (one int and
   one float array each, see [pool]), so a point-to-point operation
   allocates nothing and leaves the GC nothing to promote or mark.  A
   freed slot is pushed on a LIFO free list threaded through its first
   int field.  Queues are int arrays of handles; matching overwrites the
   entry with [-1], and dead entries are reclaimed in bulk when a queue
   next needs room.  Wildcards are sentinel integers, and exact-match
   receives carry a packed (src, tag) key so the common non-wildcard
   probe is a single integer comparison.  Collective instances
   accumulate a count and a running latest-arrival instead of an arrival
   list, which turns the per-collective cost from O(nprocs^2) to
   O(nprocs).  Lifetimes are set out in comm.mli. *)

open Scalana_mlang

type request = int
type message = int

let nil_request = -1
let nil_message = -1

(* Wildcard sentinels.  [min_int] cannot be produced by a program's
   source/tag expression in practice, and explicit sources are validated
   into [0, nprocs) anyway. *)
let any_src = min_int
let any_tag = min_int

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

(* --- pools --- *)

(* Slot [h] owns ints [h*iw, h*iw + iw) and floats [h*fw, h*fw + fw).
   [top] only moves when the free list is empty, i.e. when every slot
   below it is live, so it is the high-water mark. *)
type pool = {
  iw : int;
  fw : int;
  mutable ints : int array;
  mutable floats : float array;
  mutable top : int;
  mutable free : int;  (* head of the free list, -1 = empty *)
  mutable live : int;
}

let pool_create ~iw ~fw ~cap =
  {
    iw;
    fw;
    ints = Array.make (iw * cap) 0;
    floats = Array.make (fw * cap) 0.0;
    top = 0;
    free = -1;
    live = 0;
  }

let alloc p =
  p.live <- p.live + 1;
  if p.free >= 0 then begin
    let h = p.free in
    p.free <- p.ints.(h * p.iw);
    h
  end
  else begin
    let h = p.top in
    if (h + 1) * p.iw > Array.length p.ints then begin
      let ints = Array.make (2 * Array.length p.ints) 0 in
      Array.blit p.ints 0 ints 0 (Array.length p.ints);
      let floats = Array.make (2 * Array.length p.floats) 0.0 in
      Array.blit p.floats 0 floats 0 (Array.length p.floats);
      p.ints <- ints;
      p.floats <- floats
    end;
    p.top <- h + 1;
    h
  end

let dealloc p h =
  p.ints.(h * p.iw) <- p.free;
  p.free <- h;
  p.live <- p.live - 1

(* Request stripes.  [r_held]: 1 while the caller holds the request
   (between posting and [release]), 0 once released. *)
let r_recv = 0 (* 1 = receive, 0 = send *)
let r_src = 1 (* wanted source, [any_src] = MPI_ANY_SOURCE *)
let r_tag = 2 (* wanted tag, [any_tag] = MPI_ANY_TAG *)
let r_key = 3 (* packed exact (src, tag), -1 when wildcarded *)
let r_done = 4
let r_msg = 5 (* the send's message / the matched one; -1 = none *)
let r_waiter = 6 (* blocked rank to wake on completion, -1 = none *)
let r_site = 7 (* posting site *)
let r_held = 8
let r_iw = 9
let r_post = 0
let r_completion = 1
let r_fw = 2

(* Message stripes.  [m_refs] counts the sender request, the
   unexpected-queue entry and the receiver request. *)
let m_src = 0
let m_dst = 1
let m_tag = 2
let m_bytes = 3
let m_key = 4 (* packed (src, tag), -1 when the tag doesn't pack *)
let m_site = 5 (* the sender's call-context site, see [Exec] *)
let m_eager = 6
let m_sreq = 7 (* sender request, -1 once it is freed *)
let m_refs = 8
let m_iw = 9
let m_send_time = 0
let m_arrival = 1 (* infinity until scheduled (rendezvous) *)
let m_fw = 2

(* --- flat queues of handles, [-1] = dead --- *)

type dq = { mutable buf : int array; mutable head : int; mutable tail : int }

let dq_create () = { buf = Array.make 4 (-1); head = 0; tail = 0 }

(* Drop dead entries in order; grow only when mostly live.  In-place
   compaction is safe because the write index never passes the read
   index, and what it leaves past the new tail is never read. *)
let dq_compact q =
  let live = ref 0 in
  for i = q.head to q.tail - 1 do
    if q.buf.(i) >= 0 then incr live
  done;
  let cap = Array.length q.buf in
  let buf = if 2 * !live >= cap then Array.make (2 * cap) (-1) else q.buf in
  let j = ref 0 in
  for i = q.head to q.tail - 1 do
    let x = q.buf.(i) in
    if x >= 0 then begin
      buf.(!j) <- x;
      incr j
    end
  done;
  q.buf <- buf;
  q.head <- 0;
  q.tail <- !j

let dq_push q x =
  if q.tail = Array.length q.buf then dq_compact q;
  q.buf.(q.tail) <- x;
  q.tail <- q.tail + 1

(* Skip the dead entries at the front. *)
let dq_trim q =
  while q.head < q.tail && q.buf.(q.head) < 0 do
    q.head <- q.head + 1
  done

type t = {
  net : Network.t;
  nprocs : int;
  reqs : pool;
  msgs : pool;
  unexpected : dq array;  (* messages per destination, send order *)
  posted : dq array;  (* receives per receiver, post order *)
  colls : (int, coll) Hashtbl.t;  (* in-flight instances by sequence *)
  mutable on_wake : int -> unit;
  mutable messages_sent : int;
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
  let cap = max 16 nprocs in
  {
    net;
    nprocs;
    reqs = pool_create ~iw:r_iw ~fw:r_fw ~cap;
    msgs = pool_create ~iw:m_iw ~fw:m_fw ~cap;
    unexpected = Array.init nprocs (fun _ -> dq_create ());
    posted = Array.init nprocs (fun _ -> dq_create ());
    colls = Hashtbl.create 64;
    on_wake = (fun _ -> ());
    messages_sent = 0;
  }

let set_on_wake t f = t.on_wake <- f

(* [Network.transfer_time] and [Network.is_eager], restated here so the
   hot path stays in this module: a call across modules returns its
   float boxed when they are compiled separately. *)
let[@inline] transfer_time t bytes =
  t.net.latency
  +. (float_of_int (if bytes > 0 then bytes else 0) /. t.net.bandwidth)

let[@inline] is_eager t bytes = bytes <= t.net.eager_threshold

(* --- field access --- *)

let[@inline] rget t r f = t.reqs.ints.((r * r_iw) + f)
let[@inline] rset t r f v = t.reqs.ints.((r * r_iw) + f) <- v
let[@inline] rgetf t r f = t.reqs.floats.((r * r_fw) + f)
let[@inline] rsetf t r f v = t.reqs.floats.((r * r_fw) + f) <- v
let[@inline] mget t m f = t.msgs.ints.((m * m_iw) + f)
let[@inline] mset t m f v = t.msgs.ints.((m * m_iw) + f) <- v
let[@inline] mgetf t m f = t.msgs.floats.((m * m_fw) + f)
let[@inline] msetf t m f v = t.msgs.floats.((m * m_fw) + f) <- v
let[@inline] completed t r = rget t r r_done = 1
let[@inline] completion t r = rgetf t r r_completion
let[@inline] is_recv t r = rget t r r_recv = 1
let[@inline] matched t r = rget t r r_msg

let wait_on t r rank =
  completed t r
  ||
  (rset t r r_waiter rank;
   false)

type envelope = {
  src : int;
  dst : int;
  tag : int;
  bytes : int;
  site : int;
  send_time : float;
}

let envelope t m =
  {
    src = mget t m m_src;
    dst = mget t m m_dst;
    tag = mget t m m_tag;
    bytes = mget t m m_bytes;
    site = mget t m m_site;
    send_time = mgetf t m m_send_time;
  }

let messages_sent t = t.messages_sent
let live_requests t = t.reqs.live
let live_messages t = t.msgs.live
let peak_requests t = t.reqs.top
let peak_messages t = t.msgs.top

(* --- lifetimes --- *)

let unref t m =
  let n = mget t m m_refs - 1 in
  mset t m m_refs n;
  if n = 0 then dealloc t.msgs m

let free_req t r =
  let m = rget t r r_msg in
  if m >= 0 then begin
    if not (is_recv t r) then mset t m m_sreq (-1);
    unref t m
  end;
  dealloc t.reqs r

let release t r = if completed t r then free_req t r else rset t r r_held 0

let[@inline] complete t r ~at =
  rset t r r_done 1;
  rsetf t r r_completion at;
  let w = rget t r r_waiter in
  if w >= 0 then begin
    rset t r r_waiter (-1);
    t.on_wake w
  end;
  if rget t r r_held = 0 then free_req t r

(* --- matching --- *)

(* Whether a receive wanting [key] (or, when it is -1, [want_src] and
   [want_tag]) accepts a message from [src] with [tag] and key [mkey]. *)
let[@inline] accepts ~key ~want_src ~want_tag ~mkey ~src ~tag =
  if key >= 0 then key = mkey
  else
    (want_src = any_src || want_src = src)
    && (want_tag = any_tag || want_tag = tag)

(* Join a message with a posted receive and complete both sides; the
   caller has already killed the queue entry that held one of them. *)
let consume t r m =
  rset t r r_msg m;
  mset t m m_refs (mget t m m_refs + 1);
  if mget t m m_eager = 1 then
    (* transfer was already in flight; the receive sees it at arrival *)
    complete t r ~at:(Float.max (rgetf t r r_post) (mgetf t m m_arrival))
  else begin
    (* rendezvous: transfer starts when both sides are ready *)
    let start = Float.max (rgetf t r r_post) (mgetf t m m_send_time) in
    let arrival = start +. transfer_time t (mget t m m_bytes) in
    msetf t m m_arrival arrival;
    let s = mget t m m_sreq in
    if s >= 0 && not (completed t s) then complete t s ~at:arrival;
    complete t r ~at:arrival
  end

(* A fresh pending request held by its poster.  Only a receive's wanted
   source, tag, key and site are ever read (matching, deadlock reports),
   so [post_recv] sets them and a send leaves them stale. *)
let new_req t ~recv ~time =
  let r = alloc t.reqs in
  let ri = t.reqs.ints and b = r * r_iw in
  ri.(b + r_recv) <- (if recv then 1 else 0);
  ri.(b + r_done) <- 0;
  ri.(b + r_msg) <- -1;
  ri.(b + r_waiter) <- -1;
  ri.(b + r_held) <- 1;
  let rf = t.reqs.floats and bf = r * r_fw in
  rf.(bf + r_post) <- time;
  rf.(bf + r_completion) <- infinity;
  r

(* Post a send at [time]; returns the sender-side request (already
   completed for eager messages). *)
let send t ~src ~dst ~tag ~bytes ~time ~site =
  t.messages_sent <- t.messages_sent + 1;
  let eager = is_eager t bytes in
  let s = new_req t ~recv:false ~time in
  let m = alloc t.msgs in
  let mkey = pack_key src tag in
  let mi = t.msgs.ints and b = m * m_iw in
  mi.(b + m_src) <- src;
  mi.(b + m_dst) <- dst;
  mi.(b + m_tag) <- tag;
  mi.(b + m_bytes) <- bytes;
  mi.(b + m_key) <- mkey;
  mi.(b + m_site) <- site;
  mi.(b + m_eager) <- (if eager then 1 else 0);
  mi.(b + m_sreq) <- s;
  mi.(b + m_refs) <- 1;
  let mf = t.msgs.floats and bf = m * m_fw in
  mf.(bf + m_send_time) <- time;
  if eager then mf.(bf + m_arrival) <- time +. transfer_time t bytes
  else mf.(bf + m_arrival) <- infinity;
  rset t s r_msg m;
  if eager then begin
    rset t s r_done 1;
    rsetf t s r_completion time
  end;
  (* match against posted receives of the destination, FIFO *)
  let q = t.posted.(dst) in
  dq_trim q;
  let ri = t.reqs.ints in
  let i = ref q.head and r = ref (-1) in
  while !r < 0 && !i < q.tail do
    let x = q.buf.(!i) in
    let b = x * r_iw in
    if
      x >= 0
      && accepts ~key:ri.(b + r_key) ~want_src:ri.(b + r_src)
           ~want_tag:ri.(b + r_tag) ~mkey ~src ~tag
    then r := x
    else incr i
  done;
  if !r >= 0 then begin
    q.buf.(!i) <- -1;
    consume t !r m
  end
  else begin
    mset t m m_refs 2;
    dq_push t.unexpected.(dst) m
  end;
  s

(* Post a receive at [time]; returns the request (already completed when
   a matching unexpected message was waiting). *)
let post_recv t ~rank ~src ~tag ~time ~site =
  let key = if src <> any_src && tag <> any_tag then pack_key src tag else -1 in
  let r = new_req t ~recv:true ~time in
  let ri = t.reqs.ints and b = r * r_iw in
  ri.(b + r_src) <- src;
  ri.(b + r_tag) <- tag;
  ri.(b + r_key) <- key;
  ri.(b + r_site) <- site;
  let q = t.unexpected.(rank) in
  dq_trim q;
  let mi = t.msgs.ints in
  let i = ref q.head and m = ref (-1) in
  while !m < 0 && !i < q.tail do
    let x = q.buf.(!i) in
    let b = x * m_iw in
    if
      x >= 0
      && accepts ~key ~want_src:src ~want_tag:tag ~mkey:mi.(b + m_key)
           ~src:mi.(b + m_src) ~tag:mi.(b + m_tag)
    then m := x
    else incr i
  done;
  if !m >= 0 then begin
    let m = !m in
    q.buf.(!i) <- -1;
    consume t r m;
    (* the receive's reference replaces the queue's *)
    unref t m
  end
  else dq_push t.posted.(rank) r;
  r

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

let pending_summary t ~loc_of_site =
  let buf = Buffer.create 128 in
  let live q f =
    for i = q.head to q.tail - 1 do
      if q.buf.(i) >= 0 then f q.buf.(i)
    done
  in
  let wanted sentinel v = if v = sentinel then "any" else string_of_int v in
  Array.iteri
    (fun rank q ->
      live q (fun r ->
          Buffer.add_string buf
            (Printf.sprintf "  rank %d: recv posted at %s (src=%s tag=%s)\n"
               rank
               (Loc.to_string (loc_of_site (rget t r r_site)))
               (wanted any_src (rget t r r_src))
               (wanted any_tag (rget t r r_tag)))))
    t.posted;
  Array.iteri
    (fun rank q ->
      live q (fun m ->
          let e = envelope t m in
          Buffer.add_string buf
            (Printf.sprintf "  rank %d: unconsumed msg from %d tag %d (%s)\n"
               rank e.src e.tag
               (Loc.to_string (loc_of_site e.site)))))
    t.unexpected;
  Buffer.contents buf
