(* Tests for cross-session diffing (Diff) and the history ledger
   (History): structural alignment, verdict classification against the
   thresholds, one-sided vertices, degraded inputs, ledger round-trip
   and salvage, trend queries, and a seeded determinism property. *)

open Scalana_mlang
open Scalana_detect
open Testutil
module History = Scalana_obs.History
module Json = Scalana_obs.Obs.Json

let scales = [ 4; 8; 16 ]

(* work sized so the sampling profiler actually lands samples on the
   compute vertex (cf. test_detect's ring usage) *)
let pipeline ?inject ?faults ?(niter = 10) ?(work = 2_000_000) () =
  Scalana.Pipeline.run ?inject ?faults ~scales (ring_program ~niter ~work ())

let summary ?label ?inject ?faults ?niter ?work () =
  Scalana.Pipeline.diff_summary ?label (pipeline ?inject ?faults ?niter ?work ())

(* ring_program with an optional extra compute block after the loop, so
   the candidate session can carry a vertex the baseline never had. *)
let ring_with_tail ?(tail = false) () =
  let open Expr.Infix in
  let b = Builder.create ~file:"ring.mmp" ~name:"ring" () in
  Builder.param b "w" 2_000_000;
  Builder.param b "niter" 10;
  Builder.func b "main" (fun () ->
      [
        Builder.loop b ~label:"iter" ~var:"it" ~count:(p "niter") (fun () ->
            [
              Builder.comp b ~label:"work" ~flops:(p "w") ~mem:(p "w") ();
              Builder.sendrecv b
                ~dest:((rank + i 1) % np)
                ~sbytes:(i 4096)
                ~src:((rank - i 1 + np) % np)
                ~rbytes:(i 4096) ();
            ]);
        Builder.allreduce b ~bytes:(i 8);
      ]
      @
      if tail then
        [ Builder.comp b ~label:"tail" ~flops:(p "w" * i 4) ~mem:(p "w") () ]
      else []);
  Builder.program b

let find_delta d ~label =
  List.find_opt (fun dl -> String.equal dl.Diff.d_key.Diff.k_label label)
    d.Diff.deltas

(* --- alignment and classification --- *)

let test_self_diff_clean () =
  let base = summary ~label:"base" () in
  let cand = summary ~label:"cand" () in
  let d = Diff.compare_summaries ~base ~cand () in
  check_bool "no regressions" false (Diff.has_regressions d);
  check_int "nothing new" 0 d.Diff.n_new;
  check_int "nothing gone" 0 d.Diff.n_gone;
  check_int "nothing improved" 0 d.Diff.n_improved;
  check_bool "not degraded" false d.Diff.degraded;
  check_bool "something aligned unchanged" true (d.Diff.n_unchanged > 0);
  List.iter
    (fun dl ->
      check_string "verdict unchanged" "unchanged"
        (Diff.verdict_name dl.Diff.d_verdict))
    d.Diff.deltas

let test_time_regression_detected () =
  let base = summary ~label:"base" () in
  (* 4x the compute: same slope, 4x the largest-scale time on "work" *)
  let cand = summary ~label:"cand" ~work:8_000_000 () in
  let d = Diff.compare_summaries ~base ~cand () in
  check_bool "regression found" true (Diff.has_regressions d);
  match find_delta d ~label:"work" with
  | None -> Alcotest.fail "comp vertex \"work\" not aligned"
  | Some dl ->
      check_string "work regressed" "regressed"
        (Diff.verdict_name dl.Diff.d_verdict);
      check_bool "time grew past tolerance" true (dl.Diff.d_time_ratio > 1.25);
      check_bool "a reason names the trigger" true
        (List.exists
           (fun r ->
             try
               ignore (Str.search_forward (Str.regexp_string "time") r 0);
               true
             with Not_found -> false)
           dl.Diff.d_reasons)

let test_improvement_detected () =
  let base = summary ~label:"base" ~work:8_000_000 () in
  let cand = summary ~label:"cand" () in
  let d = Diff.compare_summaries ~base ~cand () in
  check_bool "no regressions" false (Diff.has_regressions d);
  check_bool "improvement found" true (d.Diff.n_improved > 0)

let test_one_sided_vertices () =
  let summarize prog =
    Scalana.Pipeline.diff_summary (Scalana.Pipeline.run ~scales prog)
  in
  let plain = summarize (ring_with_tail ()) in
  let tailed = summarize (ring_with_tail ~tail:true ()) in
  (* vertex only in the candidate -> New *)
  let d = Diff.compare_summaries ~base:plain ~cand:tailed () in
  check_bool "new vertices counted" true (d.Diff.n_new > 0);
  (match find_delta d ~label:"tail" with
  | None -> Alcotest.fail "tail vertex missing from diff"
  | Some dl ->
      check_string "tail is new" "new" (Diff.verdict_name dl.Diff.d_verdict);
      check_bool "no baseline side" true (dl.Diff.d_base = None));
  (* swapped: vertex only in the baseline -> Gone *)
  let d = Diff.compare_summaries ~base:tailed ~cand:plain () in
  check_bool "gone vertices counted" true (d.Diff.n_gone > 0);
  match find_delta d ~label:"tail" with
  | None -> Alcotest.fail "tail vertex missing from swapped diff"
  | Some dl ->
      check_string "tail is gone" "gone" (Diff.verdict_name dl.Diff.d_verdict);
      check_bool "no candidate side" true (dl.Diff.d_cand = None)

let test_degraded_input_dominates () =
  let base = summary ~label:"base" () in
  (* every rank of the smallest scale killed: the session survives on
     the other scales but is unmistakably degraded *)
  let faults =
    Scalana_runtime.Faults.plan
      (List.init 4 (fun r ->
           Scalana_runtime.Faults.kill_rank ~rank:r ~after:0.0001 ()))
  in
  let cand = summary ~label:"cand" ~faults () in
  check_bool "candidate session degraded" true cand.Diff.s_degraded;
  let d = Diff.compare_summaries ~base ~cand () in
  check_bool "diff carries the degradation" true d.Diff.degraded;
  (* and a clean pair stays clean *)
  let d = Diff.compare_summaries ~base ~cand:base () in
  check_bool "clean pair not degraded" false d.Diff.degraded

(* --- threshold boundary exactness (hand-built summaries) --- *)

let vstat ?slope ~time () =
  {
    Diff.vs_slope = slope;
    vs_points = 3;
    vs_coverage = 1.0;
    vs_time = time;
    vs_wait = 0.0;
    vs_fraction = 1.0;
    vs_wait_mix = [];
  }

let hand_summary ~label vertices =
  {
    Diff.s_label = label;
    s_program = "hand";
    s_scales = scales;
    s_degraded = false;
    s_rank_coverage = 1.0;
    s_total_time = List.fold_left (fun a (_, v) -> a +. v.Diff.vs_time) 0.0 vertices;
    s_wait_mix = [];
    s_vertices = vertices;
  }

let hand_key = { Diff.k_label = "work"; k_loc = "ring.mmp:5"; k_callpath = [] }

let test_threshold_exactness () =
  let th = Diff.default_thresholds in
  let base =
    hand_summary ~label:"base" [ (hand_key, vstat ~slope:(-1.0) ~time:1.0 ()) ]
  in
  let with_slope s =
    hand_summary ~label:"cand" [ (hand_key, vstat ~slope:s ~time:1.0 ()) ]
  in
  (* a delta of exactly slope_tol is benign (strict >)... *)
  let at =
    Diff.compare_summaries ~base ~cand:(with_slope (-1.0 +. th.Diff.slope_tol)) ()
  in
  check_int "delta == slope_tol is unchanged" 0 at.Diff.n_regressed;
  (* ...one epsilon past it regresses *)
  let past =
    Diff.compare_summaries ~base
      ~cand:(with_slope (-1.0 +. th.Diff.slope_tol +. 1e-9))
      ()
  in
  check_int "delta just past slope_tol regresses" 1 past.Diff.n_regressed;
  (* same strictness on the time axis *)
  let with_time t =
    hand_summary ~label:"cand" [ (hand_key, vstat ~slope:(-1.0) ~time:t ()) ]
  in
  let at =
    Diff.compare_summaries ~base ~cand:(with_time (1.0 +. th.Diff.time_tol)) ()
  in
  check_int "growth == time_tol is unchanged" 0 at.Diff.n_regressed;
  let past =
    Diff.compare_summaries ~base
      ~cand:(with_time (1.0 +. th.Diff.time_tol +. 1e-6))
      ()
  in
  check_int "growth past time_tol regresses" 1 past.Diff.n_regressed

let test_min_fraction_skips () =
  let big = { Diff.k_label = "big"; k_loc = "x:1"; k_callpath = [] } in
  let small = { Diff.k_label = "small"; k_loc = "x:2"; k_callpath = [] } in
  let mk label small_time =
    hand_summary ~label
      [
        (big, { (vstat ~slope:(-1.0) ~time:100.0 ()) with Diff.vs_fraction = 0.999 });
        ( small,
          { (vstat ~slope:(-1.0) ~time:small_time ()) with Diff.vs_fraction = 0.001 } );
      ]
  in
  (* the small vertex triples, but sits under the noise floor on both sides *)
  let d = Diff.compare_summaries ~base:(mk "b" 0.01) ~cand:(mk "c" 0.03) () in
  check_int "noise-floor vertex skipped" 1 d.Diff.n_skipped;
  check_int "no regressions from noise" 0 d.Diff.n_regressed

(* --- history ledger --- *)

let temp_ledger () =
  let path = Filename.temp_file "scalana_history" ".jsonl" in
  Sys.remove path;
  path

let entry ?(time = 1_700_000_000.0) ?(commit = "abc1234") ?(label = "run")
    ?(slopes = [ ("work @ring.mmp:5", -1.0) ]) () =
  {
    History.h_time = time;
    h_commit = commit;
    h_label = label;
    h_program = "ring";
    h_scales = scales;
    h_slopes = slopes;
    h_waits = [ ("sampled", 0.25) ];
    h_degraded = false;
    h_coverage = 1.0;
    h_detect_seconds = 0.01;
  }

let test_history_round_trip () =
  let path = temp_ledger () in
  History.append ~path (entry ~label:"first" ());
  History.append ~path (entry ~label:"second" ~time:1_700_000_060.0 ());
  let r = History.load ~path in
  check_int "nothing dropped" 0 r.History.dropped;
  check_int "two entries" 2 (List.length r.History.entries);
  (match r.History.entries with
  | [ a; b ] ->
      check_string "order preserved" "first" a.History.h_label;
      check_string "second row" "second" b.History.h_label;
      check_string "commit round-trips" "abc1234" a.History.h_commit;
      check_float "time round-trips" 1_700_000_000.0 a.History.h_time;
      Alcotest.(check (list int)) "scales round-trip" scales a.History.h_scales;
      close "slope round-trips" (-1.0) (List.assoc "work @ring.mmp:5" a.History.h_slopes)
  | _ -> Alcotest.fail "unexpected entry count");
  Sys.remove path

let test_history_salvage_truncated () =
  let path = temp_ledger () in
  History.append ~path (entry ~label:"kept" ());
  History.append ~path (entry ~label:"torn" ~time:1_700_000_060.0 ());
  (* tear the last line in half: a crashed appender *)
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let cut = String.length contents - String.length contents / 4 in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub contents 0 cut));
  let r = History.load ~path in
  check_int "torn line dropped" 1 r.History.dropped;
  check_int "prior rows salvaged" 1 (List.length r.History.entries);
  check_string "surviving row intact" "kept"
    (List.hd r.History.entries).History.h_label;
  (* appending after salvage keeps working: the new row loads, the torn
     one stays dropped *)
  History.append ~path (entry ~label:"after" ~time:1_700_000_120.0 ());
  let r = History.load ~path in
  check_int "still one dropped" 1 r.History.dropped;
  check_int "salvage plus append" 2 (List.length r.History.entries);
  Sys.remove path

let test_history_salvage_corrupt_crc () =
  let path = temp_ledger () in
  History.append ~path (entry ~label:"a" ());
  History.append ~path (entry ~label:"b" ~time:1_700_000_060.0 ());
  History.append ~path (entry ~label:"c" ~time:1_700_000_120.0 ());
  (* flip a payload byte of the middle line; its CRC no longer matches *)
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let corrupt l = Str.replace_first (Str.regexp_string "\"b\"") "\"B\"" l in
  Out_channel.with_open_bin path (fun oc ->
      List.iteri
        (fun i l ->
          Out_channel.output_string oc (if i = 1 then corrupt l else l);
          Out_channel.output_char oc '\n')
        lines);
  let r = History.load ~path in
  check_int "corrupt line dropped" 1 r.History.dropped;
  Alcotest.(check (list string))
    "neighbours survive" [ "a"; "c" ]
    (List.map (fun e -> e.History.h_label) r.History.entries);
  Sys.remove path

let test_history_line_errors () =
  (match History.entry_of_line "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed line accepted");
  (match History.entry_of_line "{\"label\":\"x\"}" with
  | Error e ->
      check_bool "missing crc reported" true
        (try
           ignore (Str.search_forward (Str.regexp_string "crc") e 0);
           true
         with Not_found -> false)
  | Ok _ -> Alcotest.fail "crc-less line accepted");
  (* a genuine line round-trips through the public parser *)
  let path = temp_ledger () in
  History.append ~path (entry ());
  let line =
    In_channel.with_open_bin path In_channel.input_all |> String.trim
  in
  Sys.remove path;
  match History.entry_of_line line with
  | Ok e -> check_string "parsed label" "run" e.History.h_label
  | Error e -> Alcotest.failf "genuine line rejected: %s" e

let test_trend_queries () =
  let entries =
    [
      entry ~slopes:[ ("a", -1.0); ("b", 0.1) ] ();
      entry ~slopes:[ ("a", -0.8) ] ~time:1_700_000_060.0 ();
      entry ~slopes:[ ("a", -0.4); ("b", 0.3) ] ~time:1_700_000_120.0 ();
    ]
  in
  Alcotest.(check (list string))
    "tracked union sorted" [ "a"; "b" ]
    (History.tracked_vertices entries);
  (match History.slope_trend entries ~key:"b" with
  | [ Some _; None; Some _ ] -> ()
  | t -> Alcotest.failf "unexpected trend shape (%d points)" (List.length t));
  let spark = History.sparkline (History.slope_trend entries ~key:"b") in
  check_int "one char per entry" 3 (String.length spark);
  check_bool "missing point is a space" true (spark.[1] = ' ');
  check_string "flat series renders mid-ramp" "=="
    (History.sparkline [ Some 1.0; Some 1.0 ]);
  check_string "empty series" "" (History.sparkline []);
  Alcotest.(check int)
    "last n clips from the front" 2
    (List.length (History.last ~n:2 entries))

let test_history_entry_from_pipeline () =
  let pipe = pipeline () in
  let e =
    Scalana.Pipeline.history_entry ~time:1_700_000_000.0 ~commit:"deadbee"
      ~label:"ring run" pipe
  in
  check_string "program recorded" "ring" e.History.h_program;
  Alcotest.(check (list int)) "scales recorded" scales e.History.h_scales;
  check_bool "clean session" false e.History.h_degraded;
  check_float "coverage full" 1.0 e.History.h_coverage;
  check_bool "waits recorded" true (e.History.h_waits <> []);
  (* the row survives a ledger round trip byte-exactly *)
  let path = temp_ledger () in
  History.append ~path e;
  let r = History.load ~path in
  check_int "pipeline row loads" 1 (List.length r.History.entries);
  check_string "label survives" "ring run"
    (List.hd r.History.entries).History.h_label;
  Sys.remove path

(* --- report surfacing --- *)

let test_trend_section_rendering () =
  let has needle s =
    try
      ignore (Str.search_forward (Str.regexp_string needle) s 0);
      true
    with Not_found -> false
  in
  let history =
    [
      entry ~commit:"aaa1111" ();
      entry ~commit:"bbb2222" ~slopes:[ ("work @ring.mmp:5", -0.5) ]
        ~time:1_700_000_060.0 ();
    ]
  in
  (* flags off: reports stay byte-identical *)
  let prog () = ring_program ~niter:4 () in
  let plain = Scalana.Pipeline.run ~scales (prog ()) in
  let with_history =
    Scalana.Pipeline.detect ~history plain.Scalana.Pipeline.static
      plain.Scalana.Pipeline.runs
  in
  (match with_history.Scalana.Pipeline.model.Report.trend with
  | None -> Alcotest.fail "history yields no trend in the model"
  | Some tr ->
      check_int "trend counts the entries" 2 tr.Report.tr_entries;
      check_string "oldest commit" "aaa1111" tr.Report.tr_first;
      check_string "newest commit" "bbb2222" tr.Report.tr_last;
      let row =
        List.find
          (fun r -> r.Report.tr_key = "work @ring.mmp:5")
          tr.Report.tr_rows
      in
      check_bool "latest slope is the newest entry's" true
        (row.Report.tr_latest = Some (-0.5)));
  check_bool "empty history builds no trend" true
    (plain.Scalana.Pipeline.model.Report.trend = None);
  let text = with_history.Scalana.Pipeline.report in
  check_bool "report gains the section" true (has "trend (history ledger" text);
  check_bool "commit range shown" true (has "aaa1111 .. bbb2222" text);
  check_bool "vertex key shown" true (has "work @ring.mmp:5" text);
  check_bool "plain report has none" false
    (has "trend (history ledger" plain.Scalana.Pipeline.report);
  let html = Scalana.Htmlreport.render with_history in
  check_bool "html trend section" true (has "Trend (history ledger" html);
  check_bool "html vertex key shown" true (has "work @ring.mmp:5" html);
  check_bool "plain html has none" false
    (has "Trend (history ledger" (Scalana.Htmlreport.render plain))

(* --- seeded determinism property --- *)

let prop_same_seed_diff_unchanged =
  Prop.test ~count:4 "same-seed sessions diff all-unchanged"
    (Prop.pair (Prop.int_range 4 8) (Prop.int_range 1_000_000 3_000_000))
    (fun (niter, work) ->
      let summarize label =
        Scalana.Pipeline.diff_summary ~label
          (Scalana.Pipeline.run ~scales:[ 4; 8 ]
             (ring_program ~niter ~work ()))
      in
      let d =
        Diff.compare_summaries ~base:(summarize "base") ~cand:(summarize "cand")
          ()
      in
      (not (Diff.has_regressions d))
      && d.Diff.n_improved = 0 && d.Diff.n_new = 0 && d.Diff.n_gone = 0
      && not d.Diff.degraded)

let () =
  Alcotest.run "diff"
    [
      ( "align",
        [
          Alcotest.test_case "self diff clean" `Quick test_self_diff_clean;
          Alcotest.test_case "time regression" `Quick
            test_time_regression_detected;
          Alcotest.test_case "improvement" `Quick test_improvement_detected;
          Alcotest.test_case "one-sided vertices" `Quick test_one_sided_vertices;
          Alcotest.test_case "degraded input" `Quick
            test_degraded_input_dominates;
        ] );
      ( "thresholds",
        [
          Alcotest.test_case "boundary exactness" `Quick
            test_threshold_exactness;
          Alcotest.test_case "noise floor" `Quick test_min_fraction_skips;
        ] );
      ( "history",
        [
          Alcotest.test_case "round trip" `Quick test_history_round_trip;
          Alcotest.test_case "salvage truncated tail" `Quick
            test_history_salvage_truncated;
          Alcotest.test_case "salvage corrupt crc" `Quick
            test_history_salvage_corrupt_crc;
          Alcotest.test_case "line errors" `Quick test_history_line_errors;
          Alcotest.test_case "trend queries" `Quick test_trend_queries;
          Alcotest.test_case "pipeline entry" `Quick
            test_history_entry_from_pipeline;
        ] );
      ( "report",
        [
          Alcotest.test_case "trend section" `Quick
            test_trend_section_rendering;
        ] );
      ("prop", [ prop_same_seed_diff_unchanged ]);
    ]
