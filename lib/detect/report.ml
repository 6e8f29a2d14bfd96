(* The root-cause report — the ScalAna-viewer of Section V: ranked root
   causes with calling paths and source snippets, plus the sections the
   extensions add.  [build] owns every decision about content: which
   sections appear (each optional one only when its layer ran) and every
   derived value (totals, membership flags, culprit lists, latest
   slopes).  Renderers only lay the model out: [to_text] here for the
   terminal, [Htmlreport] for the standalone page. *)

open Scalana_psg
module Loc = Scalana_mlang.Loc
module E = Scalana_runtime.Elastic
module H = Scalana_obs.History

include Report_model

(* Ranks shown per wait-state entry, in both renderings. *)
let blamed_ranks = 8

let vref psg vid =
  let v = Psg.vertex psg vid in
  { label = Vertex.label v; loc = v.Vertex.loc }

(* Was this vertex (or an enclosing structure) flagged by the static
   linter?  The lint anchors at source statements — often the loop
   around the communication the dynamic analysis blames — so the
   vertex's own location and its ancestors' locations both count. *)
let predicted ~psg ~locs vid =
  locs <> []
  &&
  let matches id = List.exists (Loc.equal (Psg.vertex psg id).Vertex.loc) locs in
  matches vid || List.exists matches (Psg.ancestors psg vid)

let build ?program ?(lint = []) ?predicted_locs ?(quality = Quality.clean)
    ?(phase_costs = []) ?ppg ?(history = []) ?(scales = [])
    ?(detect_seconds = 0.0) (a : Rootcause.analysis) ~psg =
  let vref = vref psg in
  let locs =
    match predicted_locs with
    | Some locs -> locs
    | None -> List.map (fun (f : Lint.finding) -> f.loc) lint
  in
  let cx = a.crosscheck in
  let ns_vids =
    List.map (fun (f : Nonscalable.finding) -> f.vertex) a.nonscalable
  in
  let ab_vids = List.map (fun (f : Abnormal.finding) -> f.vertex) a.abnormal in
  let nonscalable (f : Nonscalable.finding) =
    {
      ns = f;
      ns_vertex = vref f.vertex;
      ns_predicted = predicted ~psg ~locs f.vertex;
      ns_check = Option.bind cx (fun cx -> Crosscheck.verdict_for cx f.vertex);
    }
  in
  let crosscheck (cx : Crosscheck.t) =
    let checked = List.length cx.cx_verdicts
    and confirmed = List.length (Crosscheck.confirmed cx)
    and mismatches = Crosscheck.mismatches cx in
    {
      cx_scales = cx.cx_scales;
      cx_tolerance = cx.cx_tolerance;
      cx_exact = cx.cx_exact;
      cx_checked = checked;
      cx_confirmed = confirmed;
      (* a verdict without a model slope neither confirms nor mismatches *)
      cx_unmodeled = checked - confirmed - List.length mismatches;
      cx_mismatches =
        List.map (fun (v : Crosscheck.verdict) -> (vref v.cv_vertex, v)) mismatches;
    }
  in
  let abnormal (f : Abnormal.finding) =
    let times ppg = Scalana_ppg.Ppg.times_across_ranks ppg ~vertex:f.vertex in
    {
      ab = f;
      ab_vertex = vref f.vertex;
      ab_times = lazy (Option.fold ~none:[||] ~some:times ppg);
    }
  in
  let cause (c : Rootcause.cause) =
    {
      cause = c;
      c_callpath = (Psg.vertex psg c.cause_vertex).Vertex.callpath;
      c_confirmed =
        Option.fold ~none:false
          ~some:(fun cx -> Crosscheck.confirms_path cx c.example_path)
          cx;
      c_path =
        List.map (fun (s : Backtrack.step) -> (s, vref s.vertex)) c.example_path;
    }
  in
  let wait_row (e : Waitstate.entry) =
    let flag vids = Option.fold ~none:false ~some:(fun v -> List.mem v vids) in
    {
      we = e;
      we_vertex = Option.map vref e.ws_vertex;
      we_blamed =
        List.filteri (fun i _ -> i < blamed_ranks) e.ws_culprits |> List.map fst;
      we_nonscalable = flag ns_vids e.ws_vertex;
      we_abnormal = flag ab_vids e.ws_vertex;
      we_sampled =
        (match (ppg, e.ws_vertex) with
        | Some ppg, Some vertex -> Some (Scalana_ppg.Ppg.total_wait ppg ~vertex)
        | _ -> None);
    }
  in
  let waitstates (ws : Waitstate.t) =
    {
      ws;
      ws_blocked = Array.fold_left ( +. ) 0.0 ws.rank_blocked;
      ws_attributed = Waitstate.attributed_fraction ws;
      ws_rows = List.map wait_row ws.entries;
    }
  in
  let elastic (np, (info : E.info)) =
    let stall (r : E.recovery) =
      (r, List.fold_left (fun acc (_, s) -> acc +. s) 0.0 r.r_stalls)
    in
    {
      el_nprocs = np;
      el_info = info;
      el_recoveries = List.map stall info.recoveries;
    }
  in
  let trend_row key =
    let series = H.slope_trend history ~key in
    let latest =
      List.fold_left (fun acc v -> if v = None then acc else v) None series
    in
    { tr_key = key; tr_series = series; tr_latest = latest }
  in
  {
    program =
      Option.fold ~none:"" ~some:(fun p -> p.Scalana_mlang.Ast.pname) program;
    scales;
    detect_seconds;
    n_paths = List.length a.paths;
    quality = (if Quality.is_clean quality then None else Some quality);
    phase_costs;
    nonscalable = List.map nonscalable a.nonscalable;
    crosscheck = Option.map crosscheck cx;
    insufficient =
      List.map
        (fun (i : Nonscalable.insufficient) -> (vref i.ins_vertex, i))
        a.insufficient;
    lint;
    abnormal = List.map abnormal a.abnormal;
    causes = List.map cause a.causes;
    source =
      Option.fold ~none:[||]
        ~some:(fun p -> Array.of_list (Scalana_mlang.Pretty.render_lines p))
        program;
    waitstates = Option.map waitstates a.waitstate;
    elastic = List.map elastic a.elastic;
    trend =
      (match history with
      | [] -> None
      | first :: _ ->
          Some
            {
              tr_entries = List.length history;
              tr_first = first.H.h_commit;
              tr_last = (List.nth history (List.length history - 1)).H.h_commit;
              tr_rows = List.map trend_row (H.tracked_vertices history);
            });
  }

(* --- helpers both renderings share --- *)

let snippet t ~context (c : cause_row) =
  Scalana_mlang.Pretty.snippet_of_lines ~context t.source c.cause.cause_loc

let pp_path ppf path =
  Backtrack.pp_steps (fun (s, v) -> (s, v.label, v.loc)) ppf path

let annotation (v : Crosscheck.verdict) =
  let label = v.cv_pred.Scalana_cfg.Commcost.pred_label in
  match (v.cv_model_slope, v.cv_agrees) with
  | Some m, Some agrees ->
      Printf.sprintf "[predicted %s, model slope %+.2f, measured %+.2f — %s]"
        label m v.cv_measured_slope
        (if agrees then "confirmed" else "MISMATCH")
  | _ -> Printf.sprintf "[predicted %s, no model series]" label

let wait_evidence (c : Rootcause.cause) =
  String.concat ", "
    (List.map
       (fun (cls, t) -> Printf.sprintf "%s %.6fs" (Waitstate.class_name cls) t)
       c.wait_evidence)

(* --- terminal rendering --- *)

(* Display limits of the terminal rendering. *)
let text_culprits = 8
let text_wait_rows = 8
let text_snippet_context = 1

let plural n = if n = 1 then "" else "s"

let ranks = function
  | [] -> "none"
  | rs -> "{" ^ String.concat "," (List.map string_of_int rs) ^ "}"

let pp_quality ppf (q : Quality.t) =
  Fmt.pf ppf "@.-- data quality (degraded inputs) --@.";
  Fmt.pf ppf "  rank coverage: %.1f%%@." (100.0 *. q.rank_coverage);
  List.iter
    (fun (a : Quality.artifact_issue) ->
      Fmt.pf ppf "  artifact damage: %s: %s (%d record%s salvaged)@."
        (Filename.basename a.ai_path) a.ai_detail a.ai_kept (plural a.ai_kept))
    q.artifact_issues;
  List.iter
    (fun (r : Quality.run_issue) ->
      let backoff =
        if r.ri_backoff > 0.0 then Printf.sprintf ", %.3fs backoff" r.ri_backoff
        else ""
      in
      if r.ri_left <> [] || r.ri_joined <> [] then
        Fmt.pf ppf
          "  elastic run: np=%d left=%s joined=%s stranded=%s (%d epoch%s, %d \
           attempt%s%s)@."
          r.ri_nprocs (ranks r.ri_left) (ranks r.ri_joined) (ranks r.ri_stranded)
          r.ri_epochs (plural r.ri_epochs) r.ri_attempts (plural r.ri_attempts)
          backoff
      else
        Fmt.pf ppf
          "  degraded run: np=%d killed ranks=%s stranded=%s (%d attempt%s%s)@."
          r.ri_nprocs (ranks r.ri_killed) (ranks r.ri_stranded) r.ri_attempts
          (plural r.ri_attempts) backoff)
    q.run_issues;
  if q.dropped_scales <> [] then
    Fmt.pf ppf "  dropped scales: %s@."
      (String.concat ", " (List.map string_of_int q.dropped_scales));
  if q.quarantined_values > 0 then
    Fmt.pf ppf "  quarantined values: %d@." q.quarantined_values;
  if q.insufficient_vertices > 0 then
    Fmt.pf ppf "  vertices with insufficient data: %d@." q.insufficient_vertices

let pp_crosscheck ppf cx =
  Fmt.pf ppf "@.-- static model cross-check (scales %s, tolerance %.2f) --@."
    (String.concat "," (List.map string_of_int cx.cx_scales))
    cx.cx_tolerance;
  if not cx.cx_exact then
    Fmt.pf ppf "  (model approximate: walks hit unanalyzable constructs)@.";
  Fmt.pf ppf
    "  %d prediction%s checked: %d confirmed, %d mismatched, %d without model@."
    cx.cx_checked (plural cx.cx_checked) cx.cx_confirmed
    (List.length cx.cx_mismatches)
    cx.cx_unmodeled;
  if cx.cx_mismatches <> [] then begin
    Fmt.pf ppf "  model mismatches:@.";
    List.iter
      (fun (vx, (v : Crosscheck.verdict)) ->
        Fmt.pf ppf "    %s @%a: predicted %s (model slope %s), measured %+.2f@."
          vx.label Loc.pp vx.loc v.cv_pred.Scalana_cfg.Commcost.pred_label
          (match v.cv_model_slope with
          | Some m -> Printf.sprintf "%+.2f" m
          | None -> "?")
          v.cv_measured_slope)
      cx.cx_mismatches
  end

let pp_cause t ppf i (r : cause_row) =
  let c = r.cause in
  Fmt.pf ppf "#%d  %s @%a@." (i + 1) c.cause_label Loc.pp c.cause_loc;
  let culprits =
    List.filteri (fun i _ -> i < text_culprits) c.culprit_ranks
    |> List.map string_of_int
  in
  Fmt.pf ppf "    paths=%d  total=%.4fs  imbalance=%s  culprit ranks=%s@."
    c.n_paths c.total_time
    (if c.imbalance = infinity then "inf"
     else Printf.sprintf "%.2fx" c.imbalance)
    (String.concat ","
       (if List.length c.culprit_ranks > text_culprits then culprits @ [ "..." ]
        else culprits));
  if r.c_callpath <> [] then
    Fmt.pf ppf "    called via: %s@."
      (String.concat " > " (List.map Loc.to_string r.c_callpath));
  List.iter
    (fun line -> Fmt.pf ppf "    %s@." line)
    (snippet t ~context:text_snippet_context r);
  if c.wait_evidence <> [] then
    Fmt.pf ppf "    wait-state evidence: %s@." (wait_evidence c);
  if r.c_confirmed then
    Fmt.pf ppf
      "    confidence: raised (static model confirms the measured scaling on \
       this path)@.";
  Fmt.pf ppf "    backtracking path:@.      %a@." pp_path r.c_path

let pp_waitstates ppf w =
  Fmt.pf ppf "@.-- wait states (timeline replay, np=%d) --@." w.ws.ws_nprocs;
  Fmt.pf ppf "  blocked %.6fs across ranks, attributed %.1f%%@." w.ws_blocked
    (100.0 *. w.ws_attributed);
  List.iter
    (fun (cls, total) ->
      Fmt.pf ppf "    %-22s %10.6fs@." (Waitstate.class_name cls) total)
    w.ws.class_totals;
  if w.ws_rows <> [] then Fmt.pf ppf "  top waiting vertices:@.";
  List.iteri
    (fun i r ->
      if i < text_wait_rows then begin
        (match r.we_vertex with
        | Some v ->
            Fmt.pf ppf "    %s @%a%s%s@." v.label Loc.pp v.loc
              (if r.we_nonscalable then "  [non-scalable]" else "")
              (if r.we_abnormal then "  [abnormal]" else "")
        | None -> Fmt.pf ppf "    (unresolved vertex)@.");
        Fmt.pf ppf "      %s  %.6fs  ops=%d  blames ranks %s@."
          (Waitstate.class_name r.we.ws_class)
          r.we.ws_time r.we.ws_ops
          (String.concat "," (List.map string_of_int r.we_blamed));
        Option.iter
          (Fmt.pf ppf "      sampled wait at vertex: %.6fs@.")
          r.we_sampled
      end)
    w.ws_rows;
  let n = List.length w.ws_rows in
  if n > text_wait_rows then
    Fmt.pf ppf "    ... %d more entries@." (n - text_wait_rows);
  if w.ws.truncated > 0 then
    Fmt.pf ppf
      "  note: timeline truncated (%d events dropped); %.6fs blocked time left \
       unattributed@."
      w.ws.truncated w.ws.unattributed

let pp_elastic ppf el =
  let info = el.el_info in
  let n_epochs = List.length info.epoch_infos in
  Fmt.pf ppf "@.-- elastic membership timeline & recovery (np=%d) --@."
    el.el_nprocs;
  Fmt.pf ppf "  effective nprocs: %.2f over %d epoch%s (%d rank%s ever member)@."
    info.effective n_epochs (plural n_epochs) info.n_ranks (plural info.n_ranks);
  List.iteri
    (fun i (e : E.epoch_info) ->
      Fmt.pf ppf
        "    epoch %d  iters [%d,%d)  np=%-3d  ranks %s  [%.6fs, %.6fs)@."
        i e.ei_lo e.ei_hi e.ei_nprocs
        (E.compress_ranks e.ei_members)
        e.ei_t0 e.ei_t1)
    info.epoch_infos;
  List.iter
    (fun ((r : E.recovery), stall) ->
      Fmt.pf ppf "  recovery at iter %d: left=%s joined=%s@." r.r_iter
        (ranks r.r_left) (ranks r.r_joined);
      Fmt.pf ppf "    detect=%.6fs  agree=%.6fs  repartition=%.6fs@." r.r_detect
        r.r_agree r.r_repartition;
      Fmt.pf ppf "    %s  %.6fs across %d survivor%s  blames ranks %s@."
        (Waitstate.class_name Waitstate.Recovery_stall)
        stall (List.length r.r_stalls)
        (plural (List.length r.r_stalls))
        (ranks (r.r_left @ r.r_joined)))
    el.el_recoveries;
  Fmt.pf ppf "  recovery protocol time: %.6fs total@." (E.recovery_seconds info)

let pp_trend ppf tr =
  Fmt.pf ppf "@.-- trend (history ledger, %d entr%s) --@." tr.tr_entries
    (if tr.tr_entries = 1 then "y" else "ies");
  Fmt.pf ppf "  commits %s .. %s@." tr.tr_first tr.tr_last;
  List.iter
    (fun r ->
      Fmt.pf ppf "  %-40s %s%s@." r.tr_key (H.sparkline r.tr_series)
        (match r.tr_latest with
        | Some v -> Printf.sprintf "  latest %+.2f" v
        | None -> ""))
    tr.tr_rows

let pp_phase_costs ppf = function
  | [] -> ()
  | phases ->
      Fmt.pf ppf "@.-- pipeline cost (self-observability) --@.";
      Fmt.pf ppf "  %-28s %7s %12s@." "phase" "calls" "total";
      List.iter
        (fun (name, calls, total) ->
          Fmt.pf ppf "  %-28s %7d %11.3fs@." name calls total)
        phases

let to_text t =
  let buf = Buffer.create 2048 in
  let ppf = Fmt.with_buffer buf in
  Fmt.pf ppf "=== ScalAna scaling-loss report ===@.";
  Option.iter (pp_quality ppf) t.quality;
  Fmt.pf ppf "@.-- non-scalable vertices (log-log slope ranking) --@.";
  List.iter
    (fun r ->
      let f = r.ns in
      (* the symbolic-model verdict supersedes the plain lint marker *)
      Fmt.pf ppf "  %-28s slope=%+.2f score=%.2f frac=%4.1f%% @%a%s@."
        r.ns_vertex.label f.slope f.score (100.0 *. f.fraction) Loc.pp
        r.ns_vertex.loc
        (match r.ns_check with
        | Some v -> "  " ^ annotation v
        | None -> if r.ns_predicted then "  [predicted statically]" else ""))
    t.nonscalable;
  Option.iter (pp_crosscheck ppf) t.crosscheck;
  if t.insufficient <> [] then begin
    Fmt.pf ppf "@.-- vertices with insufficient data (not ranked) --@.";
    List.iter
      (fun (v, (i : Nonscalable.insufficient)) ->
        Fmt.pf ppf "  %-28s %d clean scale point%s (%d value%s quarantined) @%a@."
          v.label i.clean_points (plural i.clean_points) i.dropped_values
          (plural i.dropped_values) Loc.pp v.loc)
      t.insufficient
  end;
  Fmt.pf ppf "@.-- abnormal vertices (AbnormThd deviation) --@.";
  List.iter
    (fun r ->
      let f = r.ab in
      Fmt.pf ppf "  %-28s ranks=%d max=%.4fs med=%.4fs ratio=%s @%a@."
        r.ab_vertex.label (List.length f.ranks) f.max_time f.median_time
        (if f.ratio = infinity then "inf" else Printf.sprintf "%.2f" f.ratio)
        Loc.pp r.ab_vertex.loc)
    t.abnormal;
  Fmt.pf ppf "@.-- root causes (%d paths) --@." t.n_paths;
  List.iteri (pp_cause t ppf) t.causes;
  Option.iter (pp_waitstates ppf) t.waitstates;
  List.iter (pp_elastic ppf) t.elastic;
  Option.iter (pp_trend ppf) t.trend;
  pp_phase_costs ppf t.phase_costs;
  Fmt.flush ppf ();
  Buffer.contents buf

let render ?program ?predicted_locs ?quality ?phase_costs ?ppg ?history
    analysis ~psg =
  to_text
    (build ?program ?predicted_locs ?quality ?phase_costs ?ppg ?history analysis
       ~psg)
