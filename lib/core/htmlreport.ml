(* Standalone HTML rendering of a finished pipeline — the ScalAna-viewer
   GUI of Fig. 9 as a self-contained file: the upper window (root-cause
   vertices with calling paths) and the lower window (source snippets),
   plus per-rank bar charts of the problematic vertices as inline SVG.
   It lays out the pipeline's report model ({!Scalana_detect.Report.t});
   what the report contains is decided there, not here. *)

open Scalana_detect
module Loc = Scalana_mlang.Loc
module E = Scalana_runtime.Elastic

let esc s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let css =
  {|body{font-family:ui-monospace,Menlo,Consolas,monospace;margin:2em;
background:#fafafa;color:#222}
h1{font-size:1.3em}h2{font-size:1.1em;border-bottom:1px solid #ccc;
padding-bottom:.2em;margin-top:2em}
table{border-collapse:collapse;margin:.6em 0}
td,th{border:1px solid #ddd;padding:.25em .6em;text-align:left;
font-size:.85em}
th{background:#eee}
.cause{background:#fff;border:1px solid #ddd;border-left:4px solid #c33;
padding:.6em 1em;margin:.8em 0}
.path{color:#555;font-size:.8em;white-space:pre}
.snippet{background:#272822;color:#f8f8f2;padding:.5em .8em;font-size:.82em;
white-space:pre;overflow-x:auto;border-radius:4px}
.bar{fill:#4a7fb5}.bar.hot{fill:#c33}
.meta{color:#777;font-size:.85em}|}

(* Per-rank bar chart as inline SVG; deviating ranks highlighted. *)
let svg_bars ?(width = 640) ?(height = 80) ~hot values =
  (* quarantined values (NaN / negative) render as empty bars instead of
     breaking the SVG geometry *)
  let values =
    Array.map (fun v -> if Float.is_nan v || v < 0.0 then 0.0 else v) values
  in
  let n = Array.length values in
  if n = 0 then ""
  else begin
    let mx = Array.fold_left Float.max 1e-12 values in
    let bw = float_of_int width /. float_of_int n in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf
         "<svg width=\"%d\" height=\"%d\" role=\"img\" aria-label=\"per-rank times\">"
         width height);
    Array.iteri
      (fun i v ->
        let h = v /. mx *. float_of_int (height - 4) in
        let cls = if List.mem i hot then "bar hot" else "bar" in
        Buffer.add_string buf
          (Printf.sprintf
             "<rect class=\"%s\" x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" \
              height=\"%.1f\"><title>rank %d: %.4fs</title></rect>"
             cls
             (float_of_int i *. bw)
             (float_of_int height -. h)
             (Float.max 1.0 (bw -. 1.0))
             h i v))
      values;
    Buffer.add_string buf "</svg>";
    Buffer.contents buf
  end

(* Display limits of the HTML rendering. *)
let abnormal_charts = 6
let wait_rows = 12
let snippet_context = 2

let sp = Printf.sprintf
let ranks = function
  | [] -> "—"
  | rs -> String.concat "," (List.map string_of_int rs)

(* One <table>: a header row, then one row per entry; cells are HTML. *)
let table buf head rows =
  let row tag cells =
    Buffer.add_string buf "<tr>";
    List.iter (fun c -> Printf.bprintf buf "<%s>%s</%s>" tag c tag) cells;
    Buffer.add_string buf "</tr>"
  in
  Buffer.add_string buf "<table>";
  row "th" head;
  List.iter (row "td") rows;
  Buffer.add_string buf "</table>"

let render (pipe : Pipeline.t) =
  let m = pipe.Pipeline.model in
  let buf = Buffer.create 16384 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let table = table buf in
  out
    "<!doctype html><html><head><meta charset=\"utf-8\"><title>ScalAna — \
     %s</title><style>%s</style></head><body>"
    (esc m.program) css;
  out "<h1>ScalAna scaling-loss report — %s</h1>" (esc m.program);
  out "<p class=\"meta\">scales: %s · detection cost %.3fs · %d paths</p>"
    (String.concat ", " (List.map string_of_int m.scales))
    m.detect_seconds m.n_paths;
  Option.iter
    (fun (q : Quality.t) ->
      out "<h2>Data quality</h2>";
      out "<p class=\"meta\">rank coverage %.1f%%</p>" (100.0 *. q.rank_coverage);
      if q.artifact_issues <> [] then
        table [ "artifact"; "damage"; "records salvaged" ]
          (List.map
             (fun (a : Quality.artifact_issue) ->
               [ esc (Filename.basename a.ai_path); esc a.ai_detail;
                 string_of_int a.ai_kept ])
             q.artifact_issues);
      if q.run_issues <> [] then
        table
          [ "scale"; "killed ranks"; "stranded ranks"; "left"; "joined";
            "epochs"; "attempts"; "backoff" ]
          (List.map
             (fun (r : Quality.run_issue) ->
               [ string_of_int r.ri_nprocs; esc (ranks r.ri_killed);
                 esc (ranks r.ri_stranded); esc (ranks r.ri_left);
                 esc (ranks r.ri_joined);
                 (if r.ri_epochs > 0 then string_of_int r.ri_epochs else "—");
                 string_of_int r.ri_attempts;
                 (if r.ri_backoff > 0.0 then sp "%.3fs" r.ri_backoff
                  else "—") ])
             q.run_issues);
      if q.dropped_scales <> [] then
        out "<p class=\"meta\">dropped scales: %s</p>"
          (esc (String.concat ", " (List.map string_of_int q.dropped_scales)));
      if q.quarantined_values > 0 then
        out "<p class=\"meta\">quarantined values: %d</p>" q.quarantined_values;
      if q.insufficient_vertices > 0 then
        out "<p class=\"meta\">vertices with insufficient data: %d</p>"
          q.insufficient_vertices)
    m.quality;
  if m.phase_costs <> [] then begin
    out "<h2>Pipeline cost (self-observability)</h2>";
    table [ "phase"; "calls"; "total" ]
      (List.map
         (fun (name, calls, total) ->
           [ esc name; string_of_int calls; sp "%.3fs" total ])
         m.phase_costs)
  end;
  let checked = m.crosscheck <> None in
  out "<h2>Non-scalable vertices</h2>";
  table
    ([ "vertex"; "location"; "slope"; "share"; "series"; "predicted statically" ]
    @ if checked then [ "static model" ] else [])
    (List.map
       (fun (r : Report.nonscalable_row) ->
         [ esc r.ns_vertex.label; esc (Loc.to_string r.ns_vertex.loc);
           sp "%+.2f" r.ns.slope; sp "%.1f%%" (100.0 *. r.ns.fraction);
           esc
             (String.concat " → "
                (List.map (fun (n, t) -> sp "%d:%.3fs" n t) r.ns.series));
           (if r.ns_predicted then "yes" else "—") ]
         @
         if checked then
           [ Option.fold ~none:"—"
               ~some:(fun v -> esc (Report.annotation v))
               r.ns_check ]
         else [])
       m.nonscalable);
  Option.iter
    (fun (cx : Report.crosscheck) ->
      out "<h2>Static model cross-check</h2>";
      out
        "<p class=\"meta\">scales %s · tolerance %.2f · %d confirmed · %d \
         mismatched%s</p>"
        (esc (String.concat ", " (List.map string_of_int cx.cx_scales)))
        cx.cx_tolerance cx.cx_confirmed
        (List.length cx.cx_mismatches)
        (if cx.cx_exact then ""
         else " · model approximate (walks hit unanalyzable constructs)");
      if cx.cx_mismatches <> [] then
        table
          [ "vertex"; "location"; "predicted"; "model slope"; "measured slope" ]
          (List.map
             (fun ((v : Report.vref), (c : Crosscheck.verdict)) ->
               [ esc v.label; esc (Loc.to_string v.loc);
                 esc c.cv_pred.Scalana_cfg.Commcost.pred_label;
                 Option.fold ~none:"?" ~some:(sp "%+.2f") c.cv_model_slope;
                 sp "%+.2f" c.cv_measured_slope ])
             cx.cx_mismatches))
    m.crosscheck;
  if m.lint <> [] then begin
    out "<h2>Static lint findings</h2>";
    table [ "rule"; "location"; "function"; "finding" ]
      (List.map
         (fun (f : Lint.finding) ->
           [ esc (Lint.rule_name f.rule); esc (Loc.to_string f.loc);
             esc f.func; esc f.msg ])
         m.lint)
  end;
  out "<h2>Abnormal vertices</h2>";
  List.iteri
    (fun i (r : Report.abnormal_row) ->
      if i < abnormal_charts then
        out
          "<p><b>%s</b> @%s — %d deviating ranks, max %.4fs, median \
           %.4fs</p>%s"
          (esc r.ab_vertex.label)
          (esc (Loc.to_string r.ab_vertex.loc))
          (List.length r.ab.ranks) r.ab.max_time r.ab.median_time
          (svg_bars ~hot:r.ab.ranks (Lazy.force r.ab_times)))
    m.abnormal;
  out "<h2>Root causes</h2>";
  List.iteri
    (fun i (r : Report.cause_row) ->
      let c = r.cause in
      out "<div class=\"cause\"><b>#%d %s</b> @%s<br>" (i + 1)
        (esc c.cause_label) (esc (Loc.to_string c.cause_loc));
      out
        "<span class=\"meta\">paths=%d · total %.4fs · imbalance %s · culprit \
         ranks %s</span>"
        c.n_paths c.total_time
        (if c.imbalance = infinity then "∞" else sp "%.2fx" c.imbalance)
        (esc (String.concat "," (List.map string_of_int c.culprit_ranks)));
      if r.c_confirmed then
        out
          "<br><span class=\"meta\">confidence raised: static model confirms \
           the measured scaling on this path</span>";
      if c.wait_evidence <> [] then
        out "<br><span class=\"meta\">wait-state evidence: %s</span>"
          (esc (Report.wait_evidence c));
      out "<div class=\"path\">%s</div>"
        (esc (Fmt.str "%a" Report.pp_path r.c_path));
      out "<div class=\"snippet\">%s</div>"
        (esc (String.concat "\n" (Report.snippet m ~context:snippet_context r)));
      out "</div>")
    m.causes;
  Option.iter
    (fun (w : Report.waitstates) ->
      out "<h2>Wait states (timeline replay, np=%d)</h2>" w.ws.ws_nprocs;
      out "<p class=\"meta\">blocked %.6fs across ranks · attributed %.1f%%</p>"
        w.ws_blocked (100.0 *. w.ws_attributed);
      out "%s" (svg_bars ~hot:[] w.ws.rank_blocked);
      table [ "class"; "attributed" ]
        (List.map
           (fun (cls, total) ->
             [ esc (Waitstate.class_name cls); sp "%.6fs" total ])
           w.ws.class_totals);
      if w.ws_rows <> [] then
        table
          [ "vertex"; "location"; "class"; "time"; "ops"; "blamed ranks";
            "flags" ]
          (List.filteri (fun i _ -> i < wait_rows) w.ws_rows
          |> List.map (fun (r : Report.wait_row) ->
                 let flags =
                   (if r.we_nonscalable then [ "non-scalable" ] else [])
                   @ if r.we_abnormal then [ "abnormal" ] else []
                 in
                 let label, loc =
                   match r.we_vertex with
                   | Some v -> (v.label, Loc.to_string v.loc)
                   | None -> ("(unresolved)", "—")
                 in
                 [ esc label; esc loc;
                   esc (Waitstate.class_name r.we.ws_class);
                   sp "%.6fs" r.we.ws_time; string_of_int r.we.ws_ops;
                   esc (String.concat "," (List.map string_of_int r.we_blamed));
                   (if flags = [] then "—"
                    else esc (String.concat ", " flags)) ]));
      if w.ws.truncated > 0 then
        out
          "<p class=\"meta\">timeline truncated: %d events dropped · %.6fs \
           unattributed</p>"
          w.ws.truncated w.ws.unattributed)
    m.waitstates;
  List.iter
    (fun (el : Report.elastic) ->
      let info = el.el_info in
      out "<h2>Elastic membership timeline &amp; recovery (np=%d)</h2>"
        el.el_nprocs;
      out
        "<p class=\"meta\">effective nprocs %.2f · %d epochs · %d ranks ever \
         member · recovery protocol %.6fs</p>"
        info.effective
        (List.length info.epoch_infos)
        info.n_ranks (E.recovery_seconds info);
      table [ "epoch"; "iters"; "np"; "members"; "span" ]
        (List.mapi
           (fun i (e : E.epoch_info) ->
             [ string_of_int i; sp "[%d,%d)" e.ei_lo e.ei_hi;
               string_of_int e.ei_nprocs; esc (E.compress_ranks e.ei_members);
               sp "[%.6fs, %.6fs)" e.ei_t0 e.ei_t1 ])
           info.epoch_infos);
      if el.el_recoveries <> [] then
        table
          [ "recovery at iter"; "left"; "joined"; "detect"; "agree";
            "repartition"; esc (Waitstate.class_name Waitstate.Recovery_stall) ]
          (List.map
             (fun ((r : E.recovery), stall) ->
               [ string_of_int r.r_iter; esc (ranks r.r_left);
                 esc (ranks r.r_joined) ]
               @ List.map (sp "%.6fs")
                   [ r.r_detect; r.r_agree; r.r_repartition; stall ])
             el.el_recoveries))
    m.elastic;
  Option.iter
    (fun (tr : Report.trend) ->
      out "<h2>Trend (history ledger, %d entries)</h2>" tr.tr_entries;
      out
        "<p class=\"meta\">commits %s .. %s · sparkline is the fitted log-log \
         slope per tracked vertex, oldest entry first</p>"
        (esc tr.tr_first) (esc tr.tr_last);
      table [ "vertex"; "slope trend"; "latest slope" ]
        (List.map
           (fun (r : Report.trend_row) ->
             [ esc r.tr_key;
               sp "<code>%s</code>"
                 (esc (Scalana_obs.History.sparkline r.tr_series));
               Option.fold ~none:"—" ~some:(sp "%+.2f") r.tr_latest ])
           tr.tr_rows))
    m.trend;
  out "</body></html>";
  Buffer.contents buf

let write pipe ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render pipe))
