(** The ScalAna runtime tool: PAPI-style timer sampling plus PMPI-style
    interposition with random-sampling instrumentation and graph-guided
    compression. *)

open Scalana_psg
open Scalana_runtime

type config = {
  freq : float;  (** sampling frequency in Hz (paper: 200) *)
  per_sample_cost : float;  (** seconds per interrupt + unwind *)
  record_prob : float;  (** random-sampling instrumentation threshold *)
  per_record_cost : float;
  per_call_cost : float;  (** fixed wrapper cost per MPI call *)
  wait_epsilon : float;  (** waits above this mark the edge as waiting *)
  seed : int;
}

val default_config : config
type t

(** A profiler observes one simulator run: it memoizes vertex
    resolution per site id ({!Index.memo}), which is only valid for the
    run it was created for. *)
val create : ?config:config -> index:Index.t -> nprocs:int -> unit -> t
val data : t -> Profdata.t

(** The {!Instrument.t} hook record to attach to a simulator run. *)
val tool : t -> Instrument.t
