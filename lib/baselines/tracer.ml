(* Tracing baseline (the Scalasca/Vampir role), kept as a cost model.

   Logs an enter/exit event pair for every region (computation block or
   MPI call) on every rank, with one matched-peer payload per receive.
   Every event costs wrapper time on the traced process and a fixed
   number of trace-buffer bytes, which is where the paper's
   gigabytes-of-traces and tens-of-percent overheads come from.  Only
   the counts are kept: the wait-state and critical-path analyses run on
   {!Scalana_profile.Timeline}, the representation the verdict uses. *)

open Scalana_runtime

type config = {
  per_event_cost : float;  (* seconds charged per logged event *)
  bytes_per_event : int;
  ins_per_region : float;
      (* granularity of compiler instrumentation: one traced region per
         this many retired instructions inside a computation block.  Our
         Comp statements are coarse (whole solver phases); a tracing tool
         with automatic compiler instrumentation logs the many small
         functions inside them, which is where gigabyte traces and
         tens-of-percent overheads come from. *)
}

let default_config =
  { per_event_cost = 1.2e-6; bytes_per_event = 40; ins_per_region = 2000.0 }

type t = {
  cfg : config;
  mutable n_events : int;  (* raw records incl. sub-regions *)
  mutable bytes : int;
}

let create ?(config = default_config) () =
  { cfg = config; n_events = 0; bytes = 0 }

(* Each region contributes an enter and an exit record. *)
let log t ~records =
  let n = 2 + records in
  t.n_events <- t.n_events + n;
  t.bytes <- t.bytes + (n * t.cfg.bytes_per_event);
  float_of_int n *. t.cfg.per_event_cost

let on_interval t activity =
  match activity with
  | Instrument.Compute { pmu; _ } ->
      (* sub-regions the compiler instrumentation would log inside this
         computation block; capped per region, modeling the Score-P-style
         filtering of hot tiny functions every tracing guide prescribes *)
      let sub =
        min 40_000 (int_of_float (pmu.Pmu.tot_ins /. t.cfg.ins_per_region))
      in
      log t ~records:(2 * sub)
  | Instrument.Mpi_span _ ->
      (* MPI regions are logged from on_mpi_exit, which carries peers. *)
      0.0

let tool t =
  {
    (Instrument.nil "tracer") with
    on_interval = (fun _ ~stop:_ act -> on_interval t act);
    on_mpi_exit =
      (fun _ (info : Instrument.mpi_exit) ->
        log t ~records:(List.length info.deps));
  }

let n_events t = t.n_events
let storage_bytes t = t.bytes
