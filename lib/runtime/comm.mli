(** Message matching and collective synchronization: the standard MPI
    two-queue model per receiver (posted receives vs unexpected messages)
    with tag/source wildcards and non-overtaking order, eager/rendezvous
    protocols, and sequence-numbered fully-synchronizing collectives.

    {2 Representation}

    In-flight messages and requests are int handles into two pools.  A
    pool is one [int array] and one [float array] striped by slot, with
    freed slots recycled through a LIFO free list, so a point-to-point
    operation allocates nothing and the GC has nothing to copy or mark:
    no per-message record, no pointer field, no boxed float.  Queues
    hold handles; a matched entry is overwritten with [-1] in place and
    dead entries are reclaimed in bulk when a queue next needs room.
    Wildcards are the integer sentinels {!any_src}/{!any_tag}, and an
    exact-match receive carries a packed (src, tag) key so the common
    probe is one integer comparison.  Locations are not stored: a
    message keeps its sender's call-context site and a receive its
    posting site, resolved by the caller ({!pending_summary}).

    {2 Lifetimes}

    A request is held by the caller from {!send}/{!post_recv} until it
    calls {!release}, and by its receiver's posted queue until matched.
    The simulator's holders are: the blocking statement that awaits it
    ([Send]/[Recv]/[Sendrecv]), released right after the statement
    finishes; or a frame slot ([Isend]/[Irecv]), released when the slot
    is overwritten or the call activation owning the frame returns.  A
    request released before it completes is freed when it completes.

    A message is reference-counted: its sender request, its
    unexpected-queue entry and its receiver request each hold one
    reference.  Freeing a send request clears the message's sender link.

    Handles of a rank killed by a fault may stay live until the end of
    the run; on a clean run every slot is free when the last rank
    returns ({!live_requests}/{!live_messages} read 0). *)

open Scalana_mlang

type t

(** Handle of an in-flight request; {!nil_request} = none. *)
type request = private int

(** Handle of an in-flight message; {!nil_message} = none. *)
type message = private int

val nil_request : request
val nil_message : message

(** Wildcard sentinels for a receive's source and tag. *)
val any_src : int

val any_tag : int

val create : net:Network.t -> nprocs:int -> t

(** Install the scheduler callback fired with the rank a request was
    parked on ({!wait_on}; cleared first) when it completes. *)
val set_on_wake : t -> (int -> unit) -> unit

(** Post a send from [src] to [dst] (which must be in [0, nprocs)) at
    [time]; [site] is the sender's call-context site.  The returned
    request is already completed for eager messages. *)
val send :
  t -> src:int -> dst:int -> tag:int -> bytes:int -> time:float -> site:int ->
  request

(** Post a receive on [rank] ([src]/[tag] may be {!any_src}/{!any_tag});
    already completed when a matching unexpected message was waiting.
    [site] is the posting site. *)
val post_recv :
  t -> rank:int -> src:int -> tag:int -> time:float -> site:int -> request

(** The caller drops its hold on a request: freed now if completed, else
    when it completes. *)
val release : t -> request -> unit

(** {2 Requests} *)

val completed : t -> request -> bool

(** When it completed; [infinity] while pending. *)
val completion : t -> request -> float

val is_recv : t -> request -> bool

(** A send request's message, or the message a receive matched;
    {!nil_message} for a pending receive. *)
val matched : t -> request -> message

(** [wait_on t r rank]: whether [r] has completed; if not, [rank] is
    parked on it, to be passed to the {!set_on_wake} callback when it
    does. *)
val wait_on : t -> request -> int -> bool

(** {2 Messages} *)

(** A message as its sender posted it. *)
type envelope = {
  src : int;
  dst : int;
  tag : int;
  bytes : int;
  site : int;  (** the sender's call-context site *)
  send_time : float;
}

val envelope : t -> message -> envelope

(** {2 Accounting} *)

(** Point-to-point messages posted so far. *)
val messages_sent : t -> int

(** Slots in use now. *)
val live_requests : t -> int

val live_messages : t -> int

(** High-water marks: the most slots ever in use at once. *)
val peak_requests : t -> int

val peak_messages : t -> int

(** {2 Collectives} *)

type coll = {
  coll_seq : int;
  coll_kind : Ast.mpi_call;
  coll_bytes : int;
  mutable n_arrived : int;
  mutable max_arrival : float;
      (** latest arrival seen so far (running accumulator) *)
  mutable finished : bool;
  mutable start_time : float;
  mutable finish_time : float;
  mutable last_arrival_rank : int;
  mutable waiters : int list;
      (** blocked ranks, newest first; owned by the scheduler *)
}

(** Register [rank]'s arrival at its [seq]-th collective; the last
    arrival finalizes the instance (start/finish set, [finished] true)
    and drops it from the in-flight table.  Raises [Invalid_argument]
    on mismatched collective kinds. *)
val coll_arrive :
  t -> seq:int -> rank:int -> time:float -> kind:Ast.mpi_call -> bytes:int -> coll

(** Human-readable dump of pending receives/messages, for deadlock
    reports; [loc_of_site] names a posting or sending site. *)
val pending_summary : t -> loc_of_site:(int -> Loc.t) -> string
