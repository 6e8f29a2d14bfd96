(** Discrete-event MPI runtime: interprets a MiniMPI program on [nprocs]
    simulated processes, each with its own clock and interpreter stack,
    scheduled lowest-clock-first; a blocked process parks until its
    awaited requests or collective complete.  Instrumentation tools
    observe compute intervals and MPI events and charge their overhead
    onto the clocks. *)

open Scalana_mlang

(** Raised when every unfinished process is blocked; carries a summary of
    pending receives/messages. *)
exception Deadlock of string

(** Raised on dynamic errors: evaluation failures, waits on unposted
    requests, undefined callees, exceeded event budgets. *)
exception Runtime_error of { loc : Loc.t; msg : string }

type config = {
  nprocs : int;
  params : (string * int) list;  (** overrides of the program defaults *)
  cost : Costmodel.t;
  net : Network.t;
  inject : Inject.t;
  faults : Faults.armed;
  tools : Instrument.t list;
  max_events : int;
  clock0 : float;
      (** absolute simulated time the ranks start at; an elastic epoch
          resumes where the recovery protocol left the previous one *)
}

val config :
  ?params:(string * int) list ->
  ?cost:Costmodel.t ->
  ?net:Network.t ->
  ?inject:Inject.t ->
  ?faults:Faults.armed ->
  ?tools:Instrument.t list ->
  ?max_events:int ->
  ?clock0:float ->
  nprocs:int ->
  unit ->
  config

type result = {
  elapsed : float;  (** latest rank finish time, tool overhead included *)
  rank_finish : float array;
  comp_seconds : float array;
  mpi_seconds : float array;
  wait_seconds : float array;
  comp_pmu : Pmu.t array;
  events : int;
  messages : int;
  killed_ranks : int list;  (** ranks an injected fault terminated; sorted, unique *)
  stranded_ranks : int list;
      (** ranks left blocked forever by a killed peer, sorted and
          deduplicated; their partial measurements survive.  [Deadlock] is
          only raised when ranks are stuck with no fault involved. *)
}

val run : ?cfg:config -> Ast.program -> result
