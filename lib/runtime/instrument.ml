(* Tool instrumentation interface — the simulator's PMPI.

   Performance tools (the ScalAna profiler, the tracing baseline, the
   call-path profiling baseline) plug into the runtime through this hook
   record, exactly as real tools interpose on MPI and timer interrupts.
   Every hook returns the tool's own CPU cost in seconds; the runtime adds
   it to the process clock, which is how measurement overhead becomes
   visible in the experiments. *)

open Scalana_mlang

type ctx = {
  rank : int;
  time : float;  (* local clock at the start of the event *)
  loc : Loc.t;
  callpath : Loc.t list;  (* call-site locations, outermost first *)
  site : int;
      (* dense id of (call context, statement) within one run: equal
         sites have equal (callpath, loc), so tools memoize on it *)
}

type activity =
  | Compute of { pmu : Pmu.t; label : string option }
  | Mpi_span of { call : Ast.mpi_call; wait_seconds : float }

(* A matched remote send observed when a receive-like operation
   completes: the raw material of communication-dependence edges. *)
type peer_dep = {
  peer_rank : int;
  peer_loc : Loc.t;
  peer_callpath : Loc.t list;
  peer_site : int;  (* the send's [ctx.site] *)
  dep_tag : int;
  dep_bytes : int;
  send_time : float;  (* peer-local post time *)
  arrival_time : float;  (* when the message finished transferring *)
}

type collective_info = {
  coll_seq : int;
  arrive_time : float;
  start_time : float;  (* when the last rank arrived *)
  last_arrival_rank : int;
}

type mpi_exit = {
  call : Ast.mpi_call;
  enter_time : float;
  exit_time : float;
  wait_seconds : float;
  deps : peer_dep list;
  sends : (int * int * int) list;  (* (dest, tag, bytes) posted by this op *)
  collective : collective_info option;
}

type t = {
  name : string;
  on_interval : ctx -> stop:float -> activity -> float;
      (* a span of process activity [ctx.time, stop) *)
  on_mpi_exit : ctx -> mpi_exit -> float;
  on_icall : ctx -> target:string -> float;
  on_run_end : nprocs:int -> elapsed:float -> unit;
}

let nil name =
  {
    name;
    on_interval = (fun _ ~stop:_ _ -> 0.0);
    on_mpi_exit = (fun _ _ -> 0.0);
    on_icall = (fun _ ~target:_ -> 0.0);
    on_run_end = (fun ~nprocs:_ ~elapsed:_ -> ());
  }
