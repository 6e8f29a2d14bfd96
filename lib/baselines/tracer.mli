(** Tracing baseline (the Scalasca/Vampir role) as a cost model: counts
    every region a tracer would log, with peer payloads, charges
    per-event wrapper time, and accounts trace bytes — including the
    sub-regions a compiler-instrumented tracer would log inside coarse
    computation blocks.  No events are retained. *)

open Scalana_runtime

type config = {
  per_event_cost : float;
  bytes_per_event : int;
  ins_per_region : float;
      (** instrumentation granularity: one traced sub-region per this
          many retired instructions inside a computation block *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t
val tool : t -> Instrument.t
val n_events : t -> int
val storage_bytes : t -> int
