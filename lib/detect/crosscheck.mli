(** Static-vs-dynamic cross-check: re-evaluate the symbolic
    communication model at the session's scales, fit the same log-log
    line the dynamic analysis fits to measured times, and compare the
    slopes.  Agreement corroborates a non-scalable verdict; divergence
    is surfaced as a model mismatch. *)

type verdict = {
  cv_vertex : int;
  cv_pred : Scalana_cfg.Commcost.pred;
      (** the static prediction attached to the vertex *)
  cv_model_slope : float option;
      (** slope of the model-time series; [None] when the model has no
          series at the vertex's site (e.g. a loop vertex) *)
  cv_measured_slope : float;  (** the dynamic log-log fit *)
  cv_agrees : bool option;  (** [None] when there is no model slope *)
}

type t = {
  cx_scales : int list;
  cx_exact : bool;
      (** the model walks resolved all rank arithmetic; approximate
          models still cross-check but say so *)
  cx_tolerance : float;
  cx_verdicts : verdict list;  (** in finding order *)
}

(** |model − measured| bound for agreement, in slope units. *)
val default_tolerance : float

(** One verdict per non-scalable finding whose vertex carries a static
    prediction ({!Scalana_psg.Psg.static_pred}). *)
val run :
  ?tolerance:float ->
  psg:Scalana_psg.Psg.t ->
  program:Scalana_mlang.Ast.program ->
  scales:int list ->
  Nonscalable.finding list ->
  t

val verdict_for : t -> int -> verdict option
val confirmed : t -> verdict list
val mismatches : t -> verdict list

(** Does any vertex on the path carry a confirmed verdict?  Used to
    raise root-cause confidence. *)
val confirms_path : t -> Backtrack.path -> bool
