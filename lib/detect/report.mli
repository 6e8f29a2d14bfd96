(** The root-cause report (the viewer of Fig. 9): one typed model built
    from the analysis, and its terminal rendering.  {!build} decides what
    the report contains; renderers ({!to_text} here, [Htmlreport] for the
    standalone page) only lay it out. *)

include module type of struct
  include Report_model
end

(** [build analysis ~psg].  [predicted_locs] (static-lint hit locations,
    default: the locations of [lint]) mark the non-scalable rows the
    linter anticipated.  [ppg] (the largest scale's) supplies the
    per-rank times of abnormal rows and the sampled wait of wait-state
    rows.  [scales] and [detect_seconds] only fill the header. *)
val build :
  ?program:Scalana_mlang.Ast.program ->
  ?lint:Lint.finding list ->
  ?predicted_locs:Scalana_mlang.Loc.t list ->
  ?quality:Quality.t ->
  ?phase_costs:(string * int * float) list ->
  ?ppg:Scalana_ppg.Ppg.t ->
  ?history:Scalana_obs.History.entry list ->
  ?scales:int list ->
  ?detect_seconds:float ->
  Rootcause.analysis ->
  psg:Scalana_psg.Psg.t ->
  t

(** {1 Pieces both renderings share} *)

(** Numbered source lines around the cause, [context] lines each side. *)
val snippet : t -> context:int -> cause_row -> string list

(** A backtracking path, one step per line. *)
val pp_path : (Backtrack.step * vref) list Fmt.t

(** The static model's verdict on a row, e.g.
    ["[predicted O(p), model slope -0.50, measured -0.50 — confirmed]"]. *)
val annotation : Crosscheck.verdict -> string

(** ["late-sender 0.012000s, ..."] *)
val wait_evidence : Rootcause.cause -> string

(** {1 Terminal rendering} *)

val to_text : t -> string

(** The "-- pipeline cost --" section over [(phase, calls, total
    seconds)] rows; prints nothing on [[]].  Exposed so [scalana-diff]
    can render its own cost with the same layout. *)
val pp_phase_costs : Format.formatter -> (string * int * float) list -> unit

(** [to_text (build …)], for callers holding the analysis pieces. *)
val render :
  ?program:Scalana_mlang.Ast.program ->
  ?predicted_locs:Scalana_mlang.Loc.t list ->
  ?quality:Quality.t ->
  ?phase_costs:(string * int * float) list ->
  ?ppg:Scalana_ppg.Ppg.t ->
  ?history:Scalana_obs.History.entry list ->
  Rootcause.analysis ->
  psg:Scalana_psg.Psg.t ->
  string
