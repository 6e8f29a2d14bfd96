(** Tool instrumentation interface — the simulator's PMPI.

    Performance tools plug into the runtime through this hook record;
    every hook returns the tool's own CPU cost in seconds, which the
    runtime adds to the process clock (measurement overhead becomes
    observable). *)

open Scalana_mlang

type ctx = {
  rank : int;
  time : float;  (** local clock at the start of the event *)
  loc : Loc.t;
  callpath : Loc.t list;  (** call-site locations, outermost first *)
}

type activity =
  | Compute of { pmu : Pmu.t; label : string option }
  | Mpi_span of { call : Ast.mpi_call; wait_seconds : float }

(** A matched remote send observed when a receive-like operation
    completes — the raw material of communication-dependence edges. *)
type peer_dep = {
  peer_rank : int;
  peer_loc : Loc.t;
  peer_callpath : Loc.t list;
  dep_tag : int;
  dep_bytes : int;
  send_time : float;  (** peer-local post time *)
  arrival_time : float;
      (** when the message finished transferring (request completion) —
          distinct from [exit_time], which also covers sibling requests
          of the same wait and any tool overhead *)
}

type collective_info = {
  coll_seq : int;
  arrive_time : float;
  start_time : float;  (** when the last rank arrived *)
  last_arrival_rank : int;
}

type mpi_exit = {
  call : Ast.mpi_call;
  enter_time : float;
  exit_time : float;
  wait_seconds : float;
  deps : peer_dep list;
  sends : (int * int * int) list;  (** (dest, tag, bytes) posted *)
  collective : collective_info option;
}

type t = {
  name : string;
  on_interval : ctx -> stop:float -> activity -> float;
      (** a span of process activity [ctx.time, stop) *)
  on_mpi_exit : ctx -> mpi_exit -> float;
  on_icall : ctx -> target:string -> float;
  on_run_end : nprocs:int -> elapsed:float -> unit;
}

(** A tool with no-op hooks, for [{ (nil name) with ... }] updates. *)
val nil : string -> t
