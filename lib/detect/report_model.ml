(* The root-cause report as typed rows: what {!Report.build} derives from
   an analysis and every renderer reads.  Types only; {!Report} re-exports
   them. *)

type vref = { label : string; loc : Scalana_mlang.Loc.t }
(** A PSG vertex resolved for display. *)

type nonscalable_row = {
  ns : Nonscalable.finding;
  ns_vertex : vref;
  ns_predicted : bool;  (** the static linter flagged it or an enclosing loop *)
  ns_check : Crosscheck.verdict option;  (** the static model's verdict *)
}

type crosscheck = {
  cx_scales : int list;
  cx_tolerance : float;
  cx_exact : bool;
  cx_checked : int;
  cx_confirmed : int;
  cx_unmodeled : int;
  cx_mismatches : (vref * Crosscheck.verdict) list;
}

type abnormal_row = {
  ab : Abnormal.finding;
  ab_vertex : vref;
  ab_times : float array Lazy.t;  (** per-rank time at the largest scale *)
}

type cause_row = {
  cause : Rootcause.cause;
  c_callpath : Scalana_mlang.Loc.t list;
  c_confirmed : bool;  (** the static model confirms a vertex on the path *)
  c_path : (Backtrack.step * vref) list;  (** the example path *)
}

type wait_row = {
  we : Waitstate.entry;
  we_vertex : vref option;  (** [None]: the op's vertex was unresolvable *)
  we_blamed : int list;  (** the first 8 culprit ranks *)
  we_nonscalable : bool;
  we_abnormal : bool;
  we_sampled : float option;  (** the profiler's sampled wait there *)
}

type waitstates = {
  ws : Waitstate.t;
  ws_blocked : float;  (** blocked seconds summed over ranks *)
  ws_attributed : float;  (** [Waitstate.attributed_fraction] *)
  ws_rows : wait_row list;
}

type elastic = {
  el_nprocs : int;
  el_info : Scalana_runtime.Elastic.info;
  el_recoveries : (Scalana_runtime.Elastic.recovery * float) list;
      (** each recovery with its survivors' summed stall *)
}

type trend_row = {
  tr_key : string;
  tr_series : float option list;  (** fitted slope per entry, oldest first *)
  tr_latest : float option;
}

type trend = {
  tr_entries : int;
  tr_first : string;  (** the oldest entry's commit *)
  tr_last : string;
  tr_rows : trend_row list;
}

(** A section is present only when it has something to say: [quality]
    when inputs degraded, [phase_costs] while tracing, [crosscheck] with
    the static cross-check on, [waitstates] with a timeline replay,
    [elastic] for elastic sessions, [trend] with prior ledger entries. *)
type t = {
  program : string;
  scales : int list;
  detect_seconds : float;
  n_paths : int;
  quality : Quality.t option;
  phase_costs : (string * int * float) list;
  nonscalable : nonscalable_row list;
  crosscheck : crosscheck option;
  insufficient : (vref * Nonscalable.insufficient) list;
  lint : Lint.finding list;
  abnormal : abnormal_row list;
  causes : cause_row list;
  source : string array;  (** the rendered program, for snippets *)
  waitstates : waitstates option;
  elastic : elastic list;
  trend : trend option;
}
