(** Message matching and collective synchronization: the standard MPI
    two-queue model per receiver (posted receives vs unexpected messages)
    with tag/source wildcards and non-overtaking order, eager/rendezvous
    protocols, and sequence-numbered fully-synchronizing collectives.

    The representation is allocation-free on the matching path: flat
    per-rank queues with tombstoned removal, integer wildcard sentinels
    ({!any_src}/{!any_tag}) instead of options, cyclic
    {!nil_message}/{!nil_request} sentinels (compare physically, or use
    {!has_matched}) instead of option boxing, and a packed (src, tag)
    key as the exact-match fast path.  Collective instances keep a
    running (count, latest-arrival) pair rather than an arrival list. *)

open Scalana_mlang

type message = {
  msg_src : int;
  msg_dst : int;
  msg_tag : int;
  msg_bytes : int;
  msg_key : int;  (** packed (src, tag), [-1] when the tag doesn't pack *)
  send_seq : int;
  send_time : float;
  mutable arrival : float;  (** infinity until scheduled (rendezvous) *)
  send_loc : Loc.t;
  send_site : int;  (** the sender's call-context site ({!Instrument.ctx}) *)
  eager : bool;
  mutable sender_req : request;  (** [nil_request] = none *)
  mutable consumed : bool;  (** tombstone in the unexpected queue *)
}

and request = {
  req_id : int;
  req_rank : int;
  req_kind : [ `Send | `Recv ];
  post_time : float;
  want_src : int;  (** [any_src] = MPI_ANY_SOURCE *)
  want_tag : int;  (** [any_tag] = MPI_ANY_TAG *)
  req_key : int;  (** packed exact (src, tag), [-1] when wildcarded *)
  req_bytes : int;
  req_loc : Loc.t;
  mutable completed : bool;  (** tombstone in the posted queue *)
  mutable completion : float;
  mutable matched : message;  (** [nil_message] = none *)
  mutable waiter : int;
      (** rank blocked on this request, [-1] = none; owned by the
          scheduler *)
}

(** Wildcard sentinels for [want_src]/[want_tag]. *)
val any_src : int

val any_tag : int

(** Sentinels standing in for "no message" / "no request"; compare with
    [==]. *)
val nil_message : message

val nil_request : request

(** [matched] is a real message (receive side of a completed match). *)
val has_matched : request -> bool

(** Flat queue with tombstoned removal; exposed for [pending_summary]
    consumers and the benchmarks. *)
type 'a dq = {
  mutable buf : 'a array;
  mutable head : int;
  mutable tail : int;
  dummy : 'a;
}

type t = {
  net : Network.t;
  nprocs : int;
  unexpected : message dq array;
  posted : request dq array;
  colls : (int, coll) Hashtbl.t;  (** in-flight instances only *)
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
  mutable max_arrival : float;
      (** latest arrival seen so far (running accumulator) *)
  mutable finished : bool;
  mutable start_time : float;
  mutable finish_time : float;
  mutable last_arrival_rank : int;
  mutable waiters : int list;
      (** blocked ranks, newest first; owned by the scheduler *)
}

val create : net:Network.t -> nprocs:int -> t

(** Install the scheduler callback fired whenever a request completes. *)
val set_on_complete : t -> (request -> unit) -> unit

(** Post a send; the returned request is already completed for eager
    messages. Raises [Invalid_argument] on an out-of-range destination. *)
val send :
  t ->
  src:int ->
  dst:int ->
  tag:int ->
  bytes:int ->
  time:float ->
  loc:Loc.t ->
  site:int ->
  request

(** Post a receive ([src]/[tag] may be {!any_src}/{!any_tag}); already
    completed when a matching unexpected message was waiting. *)
val post_recv :
  t ->
  rank:int ->
  src:int ->
  tag:int ->
  bytes:int ->
  time:float ->
  loc:Loc.t ->
  request

(** Register [rank]'s arrival at its [seq]-th collective; the last
    arrival finalizes the instance (start/finish set, [finished] true)
    and drops it from the in-flight table.  Raises [Invalid_argument]
    on mismatched collective kinds. *)
val coll_arrive :
  t -> seq:int -> rank:int -> time:float -> kind:Ast.mpi_call -> bytes:int -> coll

(** Human-readable dump of pending receives/messages, for deadlock
    reports. *)
val pending_summary : t -> string
