(* User-flow benchmark harness, driven by perfbench/run.py.

     harness plan --workload W --seed N
       Print the workload's step plan as JSON: every CLI step a user
       runs, in order, each tagged "setup" or "flow".  The seed orders
       the steps and picks triage's injected ranks and delay; the CLIs
       only ever see the session inputs the plan names.

     harness trace --workload W --seed N --work DIR --out DIR
       Replay the same plan in-process, calling the public functions the
       CLIs call: untraced, traced (every call wrapped in a span named
       "bench/<Module.function>"), then untraced again.  The traced
       pass then times the library calls the CLIs make only indirectly
       (reference simulations, the detection stages one by one).  Writes
       OUT/trace.json (Chrome trace_event), OUT/selftime.txt (per-span
       self time) and OUT/result.json (per-step outcomes in the CLIs'
       output format, plus the per-layer metrics).

     harness records DIR...
       For each session directory, print "PATH COUNT ok|damaged" for
       every run_*.prof, counted with the salvage reader. *)

open Scalana
module Obs = Scalana_obs.Obs
module Json = Obs.Json
module Registry = Scalana_apps.Registry
module Exec = Scalana_runtime.Exec
module Inject = Scalana_runtime.Inject
module Timeline = Scalana_profile.Timeline
module Ppg = Scalana_ppg.Ppg
module Crossscale = Scalana_ppg.Crossscale
module D = Scalana_detect

(* -j of every scalana-detect / scalana-diff step: 1 is within nproc on
   any machine, and single-domain timings are the comparable ones. *)
let jobs = 1

(* ---- plans ---- *)

type kind =
  | Static
  | Prof of { np : int; inject : (float * int list) option }
  | Detect of { wait_states : bool; crosscheck : bool; scales : int list }
  | Viewer_html of { out : string }
  | Diff of { cand : string; regressed : bool }

type step = { setup : bool; program : string; session : string; kind : kind }

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* static for every program first (set-up), then per program its
   profiled scales in seeded order and one detect *)
let sweep rng programs =
  let session p = "sessions/" ^ p in
  List.map
    (fun (p, _) -> { setup = true; program = p; session = session p; kind = Static })
    programs
  @ List.concat_map
      (fun (p, scales) ->
        List.map
          (fun np ->
            { setup = false; program = p; session = session p;
              kind = Prof { np; inject = None } })
          (shuffle rng scales)
        @ [
            { setup = false; program = p; session = session p;
              kind = Detect { wait_states = false; crosscheck = false; scales } };
          ])
      programs

(* set-up profiles a clean base and a candidate slowed on seeded ranks;
   the timed read side runs detect, the HTML viewer, the base/candidate
   diff (a regression by construction) and a self-diff (clean) *)
let triage rng programs =
  List.concat_map
    (fun (p, scales) ->
      let base = Printf.sprintf "sessions/%s-base" p
      and cand = Printf.sprintf "sessions/%s-cand" p in
      let delay = List.nth [ 0.001; 0.0015; 0.002; 0.0025; 0.003 ] (Random.State.int rng 5) in
      let min_np = List.fold_left min max_int scales in
      let ranks =
        List.sort_uniq compare
          (List.init (if min_np >= 64 then 2 else 1) (fun _ -> Random.State.int rng min_np))
      in
      let mk setup session kind = { setup; program = p; session; kind } in
      [ mk true base Static; mk true cand Static ]
      @ List.map (fun np -> mk true base (Prof { np; inject = None })) scales
      @ List.map (fun np -> mk true cand (Prof { np; inject = Some (delay, ranks) })) scales
      @ [
          mk false base (Detect { wait_states = true; crosscheck = true; scales });
          mk false base (Viewer_html { out = Printf.sprintf "out/%s.html" p });
          mk false base (Diff { cand; regressed = true });
          mk false base (Diff { cand = base; regressed = false });
        ])
    (shuffle rng programs)

let plan ~workload ~seed =
  let rng = Random.State.make [| seed |] in
  match workload with
  | "apps-sweep" ->
      sweep rng
        (shuffle rng
           (List.map
              (fun (e : Registry.entry) ->
                (e.name, Registry.scales e ~min_np:4 ~max_np:64))
              Registry.all))
  | "cg-weak-scale" -> sweep rng [ ("cg-weak", [ 1024; 4096; 16384 ]) ]
  | "triage" ->
      triage rng
        [
          ("cg-weak", [ 1024; 2048; 4096 ]);
          ("zeusmp", Registry.scales (Registry.find "zeusmp") ~min_np:4 ~max_np:64);
        ]
  | w -> failwith ("unknown workload " ^ w)

let step_json st =
  let num i = Json.Num (float_of_int i) in
  let fields =
    match st.kind with
    | Static -> [ ("kind", Json.Str "static") ]
    | Prof { np; inject } ->
        [ ("kind", Json.Str "prof"); ("np", num np) ]
        @ (match inject with
          | None -> []
          | Some (d, ranks) ->
              [ ("inject_delay", Json.Num d);
                ("inject_ranks", Json.Arr (List.map num ranks)) ])
    | Detect { wait_states; crosscheck; scales } ->
        [ ("kind", Json.Str "detect"); ("wait_states", Json.Bool wait_states);
          ("crosscheck", Json.Bool crosscheck);
          ("scales", Json.Arr (List.map num scales)) ]
    | Viewer_html { out } -> [ ("kind", Json.Str "viewer_html"); ("out", Json.Str out) ]
    | Diff { cand; regressed } ->
        [ ("kind", Json.Str "diff"); ("cand", Json.Str cand);
          ("expect", Json.Str (if regressed then "regressed" else "clean")) ]
  in
  Json.Obj
    ([ ("phase", Json.Str (if st.setup then "setup" else "flow"));
       ("program", Json.Str st.program); ("session", Json.Str st.session) ]
    @ fields)

(* ---- in-process replay ---- *)

let span ?args name f = Obs.with_span ?args ("bench/" ^ name) f

type outcome = { exit : int; out : string }

(* What the traced flow hands to the layer section, and its counts. *)
type ctx = {
  dir : string;
  counts : (string, float) Hashtbl.t;
  mutable prof_refs : (Static.t * int * (float * int list) option) list;
  mutable timeline_refs : (Static.t * int) list;
  mutable detected :
    (Artifact.session * Pipeline.t * Timeline.t option * Config.t) list;
}

let add ctx name v =
  Hashtbl.replace ctx.counts name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt ctx.counts name))

let addi ctx name v = add ctx name (float_of_int v)

let make_inject = function
  | None -> Inject.empty
  | Some (d, ranks) -> Inject.create [ Inject.delay ~ranks ~every:1 d ]

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let capture ctx ~config (static : Static.t) ~nprocs =
  let cost = Cli_common.registry_cost static.program in
  let tl =
    span "Pipeline.rank_timeline" (fun () ->
        Pipeline.rank_timeline ~config ~cost static ~nprocs)
  in
  addi ctx "timeline.events" (Array.length tl.Timeline.intervals);
  tl

let load_session ctx rel =
  let s = span "Artifact.load_session" (fun () -> Artifact.load_session (Filename.concat ctx.dir rel)) in
  if s.runs = [] then failwith "session has no profiles; run scalana-prof first";
  s

let detect_session ?timeline ~config s =
  span "Pipeline.detect_session" (fun () -> Pipeline.detect_session ~config ?timeline s)

let run_step ctx st =
  let dir = Filename.concat ctx.dir st.session in
  match st.kind with
  | Static ->
      let program, _ =
        Cli_common.load_program ~program_name:(Some st.program) ~file:None
      in
      let static =
        span "Static.analyze" (fun () ->
            Static.analyze ~max_loop_depth:Config.default.max_loop_depth program)
      in
      addi ctx "static.psg_vertices" (Scalana_psg.Psg.n_vertices (Static.psg static));
      span "Artifact.save_static" (fun () -> Artifact.save_static dir static);
      { exit = 0; out = "" }
  | Prof { np; inject } ->
      let static = span "Artifact.load_static" (fun () -> Artifact.load_static dir) in
      let cost = Cli_common.registry_cost static.program in
      let w0 = alloc_words () in
      let run =
        span ~args:[ ("np", string_of_int np) ] "Prof.run" (fun () ->
            Prof.run ~config:Config.default ~cost ~inject:(make_inject inject)
              ~measure_overhead:false static ~nprocs:np ())
      in
      add ctx "profile.alloc_words" (alloc_words () -. w0);
      span "Artifact.save_run" (fun () -> Artifact.save_run dir run);
      span "Artifact.save_static" (fun () -> Artifact.save_static dir static);
      let data = run.Prof.data in
      let storage = Scalana_profile.Profdata.storage_bytes data in
      addi ctx "profile.samples" data.total_samples;
      addi ctx "profile.mpi_calls" data.mpi_calls_seen;
      addi ctx "profile.profdata_bytes" storage;
      ctx.prof_refs <- (static, np, inject) :: ctx.prof_refs;
      { exit = 0;
        out =
          Printf.sprintf "np=%d elapsed=%.4fs samples=%d mpi_calls=%d storage=%dB\n"
            np run.result.elapsed data.total_samples data.mpi_calls_seen storage }
  | Detect { wait_states; crosscheck; _ } ->
      let s = load_session ctx st.session in
      let config =
        { Config.default with analysis_domains = jobs; static_crosscheck = crosscheck }
      in
      let timeline =
        if wait_states then begin
          let nprocs = List.fold_left (fun acc (n, _) -> max acc n) 1 s.runs in
          ctx.timeline_refs <- (s.static, nprocs) :: ctx.timeline_refs;
          Some (capture ctx ~config s.static ~nprocs)
        end
        else None
      in
      let pipe = detect_session ?timeline ~config s in
      ctx.detected <- (s, pipe, timeline, config) :: ctx.detected;
      { exit =
          (if Pipeline.degraded pipe then 2
           else if pipe.analysis.causes <> [] then 1
           else 0);
        out = pipe.report }
  | Viewer_html { out } ->
      let s = load_session ctx st.session in
      let pipe = detect_session ~config:Config.default s in
      let html = span "Htmlreport.render" (fun () -> Htmlreport.render pipe) in
      Out_channel.with_open_bin (Filename.concat ctx.dir out) (fun oc ->
          output_string oc html);
      { exit = 0; out = Printf.sprintf "HTML report written to %s\n" out }
  | Diff { cand; _ } ->
      let config = { Config.default with analysis_domains = jobs } in
      let summary rel =
        let pipe = detect_session ~config (load_session ctx rel) in
        span "Pipeline.diff_summary" (fun () -> Pipeline.diff_summary ~label:rel pipe)
      in
      let base = summary st.session in
      let cand = summary cand in
      let d =
        span "Diff.compare_summaries" (fun () -> D.Diff.compare_summaries ~base ~cand ())
      in
      { exit =
          (if d.D.Diff.degraded then 2 else if D.Diff.has_regressions d then 1 else 0);
        out = Fmt.str "%a" D.Diff.pp d }

(* the CLIs' own error mapping (Cli_common.run_cli) *)
let guarded ctx st =
  try run_step ctx st with
  | Artifact.Error e -> { exit = 2; out = Artifact.error_message e }
  | Failure m | Invalid_argument m | Sys_error m -> { exit = 2; out = m }
  | e -> { exit = 3; out = Printexc.to_string e }

let flow ctx steps =
  span "flow" (fun () ->
      List.map
        (fun st ->
          let tool =
            match st.kind with
            | Static -> "scalana-static"
            | Prof _ -> "scalana-prof"
            | Detect _ -> "scalana-detect"
            | Viewer_html _ -> "scalana-viewer"
            | Diff _ -> "scalana-diff"
          in
          span ("step " ^ tool) (fun () -> guarded ctx st))
        steps)

(* Reference simulations beside each profiled or timeline run: the same
   program, scale, cost model and injection with no tool attached, and
   with an empty Instrument.nil tool — the dispatch cost alone. *)
let reference ctx ~for_ (static : Static.t) np inject =
  let cost = Cli_common.registry_cost static.program in
  let cfg tools = Exec.config ~nprocs:np ~cost ~inject:(make_inject inject) ~tools () in
  let args = [ ("np", string_of_int np); ("for", for_) ] in
  let r = span ~args "Exec.run raw" (fun () -> Exec.run ~cfg:(cfg []) static.program) in
  addi ctx "runtime.events" r.Exec.events;
  addi ctx "runtime.messages" r.Exec.messages;
  ignore
    (span ~args "Exec.run nil" (fun () ->
         Exec.run ~cfg:(cfg [ Scalana_runtime.Instrument.nil "nil" ]) static.program)
      : Exec.result)

let counter name =
  Option.value ~default:0
    (List.assoc_opt name (Obs.Metrics.snapshot ()).Obs.Metrics.counters)

(* The detection stages Pipeline.detect_session runs internally, each
   called on its own.  Layers a workload's CLI flow never reaches
   (timeline, HTML, diff) run here too, under an "extras" span, so every
   per-layer metric is a measurement on every workload. *)
let decompose ctx ~html ~diff (s, (pipe : Pipeline.t), timeline, config) =
  let static = s.Artifact.static in
  let psg = Static.psg static in
  List.iter
    (fun (n, (r : Prof.run)) ->
      let p =
        span ~args:[ ("np", string_of_int n) ] "Ppg.build" (fun () ->
            Ppg.build ~psg r.data)
      in
      addi ctx "ppg.bytes" (Ppg.storage_bytes p);
      addi ctx "ppg.cells" (Array.length p.Ppg.times))
    s.runs;
  let cs =
    span "Crossscale.create" (fun () ->
        Crossscale.create ~psg (List.map (fun (n, (r : Prof.run)) -> (n, r.data)) s.runs))
  in
  let ns_config = Config.ns_config config and ab_config = Config.ab_config config in
  let fits0 = counter "loglog.fits" in
  ignore
    (span "Nonscalable.detect" (fun () -> D.Nonscalable.detect ~config:ns_config cs)
      : D.Nonscalable.finding list);
  addi ctx "detect.fits" (counter "loglog.fits" - fits0);
  ignore
    (span "Abnormal.detect" (fun () ->
         D.Abnormal.detect ~config:ab_config (snd (Crossscale.largest cs)))
      : D.Abnormal.finding list);
  let tl =
    match timeline with
    | Some tl -> tl
    | None ->
        let nprocs = List.fold_left (fun acc (n, _) -> min acc n) max_int s.runs in
        span "extras" (fun () -> capture ctx ~config static ~nprocs)
  in
  let ws = span "Waitstate.analyze" (fun () -> D.Waitstate.analyze tl) in
  add ctx "waitstate.attributed" (Array.fold_left ( +. ) 0.0 ws.D.Waitstate.rank_attributed);
  add ctx "waitstate.blocked" (Array.fold_left ( +. ) 0.0 ws.D.Waitstate.rank_blocked);
  let analysis =
    span "Rootcause.analyze" (fun () ->
        D.Rootcause.analyze ~ns_config ~ab_config ~bt_config:(Config.bt_config config)
          ?waitstate:(Option.map (fun _ -> ws) timeline)
          cs)
  in
  addi ctx "detect.hops"
    (List.fold_left (fun acc p -> acc + max 0 (List.length p - 1)) 0 analysis.paths);
  let lint = span "Lint.run" (fun () -> Lint.run static.program) in
  ignore
    (span "Report.render" (fun () ->
         D.Report.render ~program:static.program
           ~predicted_locs:(List.map (fun (f : Lint.finding) -> f.loc) lint)
           ~quality:pipe.quality ~ppg:(snd (Crossscale.largest cs)) ~psg analysis)
      : string);
  if not html then
    span "extras" (fun () ->
        ignore (span "Htmlreport.render" (fun () -> Htmlreport.render pipe) : string));
  if not diff then
    span "extras" (fun () ->
        let sm = span "Pipeline.diff_summary" (fun () -> Pipeline.diff_summary pipe) in
        ignore
          (span "Diff.compare_summaries" (fun () ->
               D.Diff.compare_summaries ~base:sm ~cand:sm ())
            : D.Diff.t))

let layers ctx steps =
  let has f = List.exists (fun st -> f st.kind) steps in
  let html = has (function Viewer_html _ -> true | _ -> false)
  and diff = has (function Diff _ -> true | _ -> false) in
  span "layers" (fun () ->
      List.iter (decompose ctx ~html ~diff) (List.rev ctx.detected);
      List.iter
        (fun (static, np, inject) -> reference ctx ~for_:"prof" static np inject)
        (List.rev ctx.prof_refs);
      List.iter
        (fun (static, np) -> reference ctx ~for_:"timeline" static np None)
        (List.rev ctx.timeline_refs))

let rec dir_bytes path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc f -> acc + dir_bytes (Filename.concat path f))
      0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let fresh_ctx dir =
  List.iter (fun d -> mkdir_p (Filename.concat dir d)) [ "sessions"; "out" ];
  { dir; counts = Hashtbl.create 32; prof_refs = []; timeline_refs = []; detected = [] }

(* ---- self time ---- *)

let is_ours (s : Obs.completed) = String.starts_with ~prefix:"bench/" s.sp_name
let dur (s : Obs.completed) = s.sp_stop -. s.sp_start

(* Per span name: calls, total seconds, and self seconds — duration minus
   the part covered by the benchmark's own child spans.  Library spans
   recorded inside a call are not subtracted: they are the call's work. *)
let self_times spans =
  let ours = List.filter is_ours spans in
  let covered = Hashtbl.create 64 in
  let stack = ref [] in
  List.iter
    (fun (s : Obs.completed) ->
      let rec pop = function
        | (p : Obs.completed) :: rest when p.sp_stop <= s.sp_start -> pop rest
        | st -> st
      in
      stack := pop !stack;
      (match !stack with
      | p :: _ ->
          Hashtbl.replace covered p.sp_seq
            (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt covered p.sp_seq))
      | [] -> ());
      stack := s :: !stack)
    ours;
  let rows = Hashtbl.create 32 in
  List.iter
    (fun (s : Obs.completed) ->
      let self = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.sp_seq) in
      let c, t, sf = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt rows s.sp_name) in
      Hashtbl.replace rows s.sp_name (c + 1, t +. dur s, sf +. self))
    ours;
  Hashtbl.fold (fun name (c, t, sf) acc -> (name, c, t, sf) :: acc) rows []
  |> List.sort (fun (n1, _, _, a) (n2, _, _, b) -> compare (b, n1) (a, n2))

let render_self_times rows =
  let total = List.fold_left (fun acc (_, _, _, sf) -> acc +. sf) 0.0 rows in
  let b = Buffer.create 2048 in
  Printf.bprintf b "%-40s %7s %11s %11s %7s\n" "span (self = total - child bench spans)"
    "calls" "total_s" "self_s" "self%";
  List.iter
    (fun (name, c, t, sf) ->
      Printf.bprintf b "%-40s %7d %11.6f %11.6f %6.2f%%\n" name c t sf
        (if total > 0.0 then 100.0 *. sf /. total else 0.0))
    rows;
  Buffer.contents b

(* ---- per-layer metrics ---- *)

let metrics ctx spans ~untraced ~traced ~artifact_bytes =
  let sum pred =
    List.fold_left
      (fun acc (s : Obs.completed) -> if pred s then acc +. dur s else acc)
      0.0 spans
  in
  let t name = sum (fun s -> s.sp_name = "bench/" ^ name) in
  let c name = Option.value ~default:0.0 (Hashtbl.find_opt ctx.counts name) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let raw = t "Exec.run raw" in
  let raw_for_prof =
    sum (fun s -> s.sp_name = "bench/Exec.run raw" && List.assoc_opt "for" s.sp_args = Some "prof")
  in
  let blocked = c "waitstate.blocked" in
  [
    ("static.analyze_s", t "Static.analyze", "s");
    ("static.psg_vertices", c "static.psg_vertices", "count");
    ("lint.run_s", t "Lint.run", "s");
    ("runtime.raw_s", raw, "s");
    ("runtime.nil_tool_s", t "Exec.run nil", "s");
    ("runtime.dispatch_ratio", ratio (t "Exec.run nil") raw, "ratio");
    ("runtime.events", c "runtime.events", "count");
    ("runtime.messages", c "runtime.messages", "count");
    ("runtime.events_per_s", ratio (c "runtime.events") raw, "1/s");
    ("profile.run_s", t "Prof.run", "s");
    ("profile.overhead_ratio", ratio (t "Prof.run") raw_for_prof, "ratio");
    ("profile.alloc_words", c "profile.alloc_words", "words");
    ("profile.samples", c "profile.samples", "count");
    ("profile.mpi_calls", c "profile.mpi_calls", "count");
    ("profile.profdata_bytes", c "profile.profdata_bytes", "bytes");
    ("timeline.capture_s", t "Pipeline.rank_timeline", "s");
    ("timeline.events", c "timeline.events", "count");
    ("waitstate.analyze_s", t "Waitstate.analyze", "s");
    ("waitstate.attributed_frac",
      (if blocked > 0.0 then c "waitstate.attributed" /. blocked else 1.0), "frac");
    ("artifact.static_rw_s", t "Artifact.load_static" +. t "Artifact.save_static", "s");
    ("artifact.save_run_s", t "Artifact.save_run", "s");
    ("artifact.load_session_s", t "Artifact.load_session", "s");
    ("artifact.bytes", float_of_int artifact_bytes, "bytes");
    ("ppg.build_s", t "Ppg.build", "s");
    ("ppg.bytes", c "ppg.bytes", "bytes");
    ("ppg.cells", c "ppg.cells", "count");
    ("crossscale.create_s", t "Crossscale.create", "s");
    ("detect.nonscalable_s", t "Nonscalable.detect", "s");
    ("detect.fits", c "detect.fits", "count");
    ("detect.abnormal_s", t "Abnormal.detect", "s");
    ("detect.rootcause_s", t "Rootcause.analyze", "s");
    ("detect.hops", c "detect.hops", "count");
    ("detect.session_s", t "Pipeline.detect_session", "s");
    ("report.render_s", t "Report.render", "s");
    ("htmlreport.render_s", t "Htmlreport.render", "s");
    ("diff.summarize_s", t "Pipeline.diff_summary", "s");
    ("diff.compare_s", t "Diff.compare_summaries", "s");
    ("trace.untraced_s", untraced, "s");
    ("trace.overhead_s", traced -. untraced, "s");
  ]

let trace ~workload ~seed ~work ~out =
  let steps = plan ~workload ~seed in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  (* untraced passes (collection off) before and after the traced one,
     so heap growth and cache warm-up bias neither side of the overhead *)
  let untraced_pass name =
    Gc.compact ();
    let dir = Filename.concat work name in
    let (_ : outcome list), secs = timed (fun () -> flow (fresh_ctx dir) steps) in
    secs
  in
  let before = untraced_pass "untraced-before" in
  Gc.compact ();
  Obs.enable ();
  let ctx = fresh_ctx (Filename.concat work "traced") in
  let outcomes, traced = timed (fun () -> flow ctx steps) in
  layers ctx steps;
  Obs.disable ();
  (* the layer section is done with the sessions: free them first *)
  ctx.detected <- [];
  ctx.prof_refs <- [];
  ctx.timeline_refs <- [];
  let untraced = (before +. untraced_pass "untraced-after") /. 2.0 in
  let spans = Obs.spans () in
  mkdir_p out;
  Obs.export_trace ~path:(Filename.concat out "trace.json");
  Out_channel.with_open_bin (Filename.concat out "selftime.txt") (fun oc ->
      output_string oc (render_self_times (self_times spans)));
  let artifact_bytes = dir_bytes (Filename.concat ctx.dir "sessions") in
  let result =
    Json.Obj
      [
        ( "steps",
          Json.Arr
            (List.map
               (fun o -> Json.Obj [ ("exit", Json.Num (float_of_int o.exit)); ("out", Json.Str o.out) ])
               outcomes) );
        ( "metrics",
          Json.Obj
            (List.map
               (fun (name, v, unit) ->
                 (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
               (metrics ctx spans ~untraced ~traced ~artifact_bytes)) );
      ]
  in
  Out_channel.with_open_bin (Filename.concat out "result.json") (fun oc ->
      output_string oc (Json.to_string result))

let records dirs =
  List.iter
    (fun dir ->
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.iter (fun f ->
             if String.starts_with ~prefix:"run_" f && Filename.check_suffix f ".prof"
             then begin
               let path = Filename.concat dir f in
               let s : Prof.run Artifact.salvage = Artifact.read_stream path in
               Printf.printf "%s %d %s\n" path (List.length s.values)
                 (if s.damage = None then "ok" else "damaged")
             end))
    dirs

let () =
  let opt name args =
    let rec go = function
      | k :: v :: _ when k = name -> v
      | _ :: rest -> go rest
      | [] -> failwith ("missing " ^ name)
    in
    go args
  in
  match Array.to_list Sys.argv with
  | _ :: "plan" :: args ->
      let steps =
        plan ~workload:(opt "--workload" args) ~seed:(int_of_string (opt "--seed" args))
      in
      print_endline (Json.to_string (Json.Arr (List.map step_json steps)))
  | _ :: "trace" :: args ->
      trace ~workload:(opt "--workload" args)
        ~seed:(int_of_string (opt "--seed" args))
        ~work:(opt "--work" args) ~out:(opt "--out" args)
  | _ :: "records" :: dirs -> records dirs
  | _ ->
      prerr_endline "usage: harness (plan|trace) --workload W --seed N [...] | records DIR...";
      exit 2
