(* Static-vs-dynamic cross-check: for every non-scalable vertex carrying
   a symbolic prediction, re-evaluate the static communication model at
   the session's scales, fit the same log-log line the dynamic analysis
   fits to measured times, and compare slopes.  Agreement corroborates
   the dynamic verdict (the measured loss has the shape the code's
   communication structure predicts); divergence means the model and the
   measurement disagree about *why* the vertex scales badly and is
   surfaced as a model mismatch. *)

open Scalana_psg
open Scalana_cfg

type verdict = {
  cv_vertex : int;
  cv_pred : Commcost.pred;  (* the static prediction on the vertex *)
  cv_model_slope : float option;  (* None: no model series at this site *)
  cv_measured_slope : float;
  cv_agrees : bool option;  (* None when there is no model slope *)
}

type t = {
  cx_scales : int list;
  cx_exact : bool;  (* the model walks resolved all rank arithmetic *)
  cx_tolerance : float;
  cx_verdicts : verdict list;  (* finding order *)
}

(* Slopes are exponents of p; a quarter of a doubling step separates
   O(1) from O(sqrt p) comfortably while absorbing fit noise. *)
let default_tolerance = 0.25

let run ?(tolerance = default_tolerance) ~psg ~program ~scales
    (findings : Nonscalable.finding list) =
  let exact, series = Commcost.model_series program ~scales in
  let slope_at func loc =
    List.find_opt
      (fun ((f, l), _) ->
        String.equal f func && Scalana_mlang.Loc.equal l loc)
      series
    |> Option.map (fun (_, pts) -> (Loglog.fit pts).Loglog.slope)
  in
  let verdicts =
    List.filter_map
      (fun (f : Nonscalable.finding) ->
        match Psg.static_pred psg f.Nonscalable.vertex with
        | None -> None
        | Some pred ->
            let v = Psg.vertex psg f.Nonscalable.vertex in
            let model = slope_at v.Vertex.func v.Vertex.loc in
            let agrees =
              Option.map
                (fun m ->
                  Float.abs (m -. f.Nonscalable.slope) <= tolerance)
                model
            in
            Some
              {
                cv_vertex = f.Nonscalable.vertex;
                cv_pred = pred;
                cv_model_slope = model;
                cv_measured_slope = f.Nonscalable.slope;
                cv_agrees = agrees;
              })
      findings
  in
  { cx_scales = scales; cx_exact = exact; cx_tolerance = tolerance;
    cx_verdicts = verdicts }

let verdict_for t vid =
  List.find_opt (fun v -> v.cv_vertex = vid) t.cx_verdicts

let confirmed t = List.filter (fun v -> v.cv_agrees = Some true) t.cx_verdicts
let mismatches t = List.filter (fun v -> v.cv_agrees = Some false) t.cx_verdicts

(* Does the static model confirm any vertex on this backtracking path?
   Root-cause walks start at a detected vertex; a confirmed start means
   the loss the path explains has the statically predicted shape. *)
let confirms_path t (path : Backtrack.path) =
  List.exists
    (fun (s : Backtrack.step) ->
      match verdict_for t s.Backtrack.vertex with
      | Some v -> v.cv_agrees = Some true
      | None -> false)
    path
