(* Tests for the ScalAna profiling layer: the profile columns, comm-record
   compression, sampling attribution and indirect-call resolution. *)

open Scalana_mlang
open Scalana_psg
open Scalana_runtime
open Scalana_profile
open Testutil

let static_of prog =
  let locals = Intra.build_all prog in
  let full = Inter.build ~locals prog in
  let contraction = Contract.run full in
  let index = Index.build ~full ~contraction in
  (locals, full, contraction, index)

let profiled_run ?config ?cost ?(nprocs = 4) prog =
  let _, _, contraction, index = static_of prog in
  let profiler = Profiler.create ?config ~index ~nprocs () in
  let cfg =
    Exec.config ~nprocs ?cost ~tools:[ Profiler.tool profiler ] ()
  in
  let result = Exec.run ~cfg prog in
  (contraction, index, Profiler.data profiler, result)

(* --- profile columns --- *)

let test_perfvec () =
  let data = Profdata.create ~nprocs:2 in
  let row = Profdata.row_index data ~vertex:3 in
  Profdata.add_sampled data ~row ~rank:1 ~time:0.5 ~samples:2;
  Profdata.add_sampled data ~row ~rank:1 ~time:0.25 ~samples:1;
  Profdata.add_wait data ~row ~rank:1 ~calls:1 0.1;
  let r = data.rows.(row) in
  check_float "time" 0.75 r.time.(1);
  check_int "samples" 3 r.samples.(1);
  check_float "wait" 0.1 r.wait.(1);
  check_int "calls" 1 r.calls.(1);
  check_int "rank 0 untouched" 0 r.seq.(0);
  check_int "no counter columns without counters" 0 (Array.length r.tot_ins);
  let dst = Profdata.create ~nprocs:4 in
  Profdata.merge_renumbered ~into:dst ~map:(fun l -> l + 2) data;
  Profdata.merge_renumbered ~into:dst ~map:(fun l -> l + 2) data;
  match Profdata.find_row dst ~vertex:3 with
  | Some d ->
      check_float "merged time" 1.5 d.time.(3);
      check_int "merged samples" 6 d.samples.(3);
      check_int "renumbered ranks only" 0 (d.seq.(0) + d.seq.(1) + d.seq.(2))
  | None -> Alcotest.fail "merged row missing"

(* --- dependence records --- *)

let record data ~tag ~waited ~wait_seconds =
  Profdata.record_p2p data ~recv_row:1 ~recv_rank:1 ~send_row:0 ~send_rank:0
    ~tag ~bytes:1024 ~waited ~wait_seconds

let comm_data () =
  let data = Profdata.create ~nprocs:4 in
  ignore (Profdata.row_index data ~vertex:9);
  ignore (Profdata.row_index data ~vertex:10);
  data

let test_commrec_compression () =
  let t = comm_data () in
  for _ = 1 to 100 do
    record t ~tag:3 ~waited:false ~wait_seconds:0.0
  done;
  record t ~tag:3 ~waited:true ~wait_seconds:0.5;
  check_int "one edge" 1 (Profdata.n_p2p t);
  check_int "hits" 101 t.p2p_hits.(0);
  check_bool "wait sticky" true (t.p2p_waited.(0) = 1);
  check_float "max wait" 0.5 t.p2p_max_wait.(0);
  (* compression ratio accounting *)
  check_bool "compressed smaller" true
    (Profdata.comm_bytes t < Profdata.uncompressed_comm_bytes t);
  (* distinct keys create distinct edges *)
  record t ~tag:4 ~waited:false ~wait_seconds:0.0;
  check_int "two edges" 2 (Profdata.n_p2p t)

(* The hot path of a repeated dependence: a hash, a probe and counter
   bumps in flat arrays, no allocation. *)
let test_commrec_repeat_allocates_nothing () =
  let t = comm_data () in
  record t ~tag:3 ~waited:false ~wait_seconds:0.0;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    record t ~tag:3 ~waited:true ~wait_seconds:0.25
  done;
  let words = Gc.minor_words () -. w0 in
  check_bool (Printf.sprintf "%.0f words for 10k repeats" words) true (words < 100.0);
  check_int "hits" 10_001 t.p2p_hits.(0)

let test_commrec_collectives () =
  let t = Profdata.create ~nprocs:8 in
  let row = Profdata.row_index t ~vertex:5 in
  Profdata.add_wait t ~row ~rank:0 ~calls:1 0.0;
  Profdata.record_coll t ~row ~last_arrival_rank:2;
  Profdata.record_coll t ~row ~last_arrival_rank:2;
  Profdata.record_coll t ~row ~last_arrival_rank:7;
  check_int "one record" 1 (Profdata.n_coll t);
  check_int "instances" 3 (Array.fold_left ( + ) 0 (Array.sub t.coll_hits 0 2));
  let _, _, contraction, _ = static_of (ring_program ()) in
  let ppg = Scalana_ppg.Ppg.build ~psg:contraction.Contract.psg t in
  Alcotest.(check (option int))
    "dominant late rank" (Some 2)
    (Scalana_ppg.Ppg.coll_late_rank ppg ~vertex:5)

(* --- sampling --- *)

let test_sampling_density () =
  (* a long single-vertex program: sample count ~ elapsed * freq *)
  let prog = ring_program ~niter:40 ~work:3_000_000 () in
  let _, _, data, result = profiled_run ~nprocs:4 prog in
  let expected = result.Exec.elapsed *. 200.0 *. 4.0 in
  let got = float_of_int data.Profdata.total_samples in
  check_bool "sample density"
    true
    (got > 0.5 *. expected && got < 1.5 *. expected);
  check_bool "few unattributed" true
    (data.Profdata.unattributed_samples * 10 < data.Profdata.total_samples + 10)

let test_attribution_targets_hot_vertex () =
  let prog = ring_program ~niter:50 ~work:2_000_000 () in
  let contraction, _, data, _ = profiled_run ~nprocs:4 prog in
  (* the "work" comp must absorb the bulk of sampled time on rank 0 *)
  let work_vertex =
    List.hd
      (Psg.find_all
         (fun v ->
           match v.Vertex.kind with
           | Vertex.Comp { label = Some "work"; _ } -> true
           | _ -> false)
         contraction.Contract.psg)
  in
  let total = ref 0.0 in
  Array.iter (fun (r : Profdata.row) -> total := !total +. Profdata.cell r.time 0) data.rows;
  match Profdata.find_row data ~vertex:work_vertex.Vertex.id with
  | Some r when r.seq.(0) > 0 ->
      check_bool "hot vertex dominates" true (r.time.(0) > 0.6 *. !total)
  | _ -> Alcotest.fail "work vertex has no data"

let test_wait_recorded_on_mpi_vertex () =
  let prog =
    let open Expr.Infix in
    let b = Builder.create ~file:"w.mmp" ~name:"w" () in
    Builder.func b "main" (fun () ->
        [
          Builder.branch b
            ~cond:(rank = i 0)
            (fun () -> [ Builder.comp b ~flops:(i 80_000_000) ~mem:(i 30_000_000) () ]);
          Builder.barrier b;
        ]);
    Builder.program b
  in
  let contraction, _, data, _ = profiled_run ~nprocs:4 prog in
  let barrier_vertex =
    List.hd (Psg.find_all Vertex.is_mpi contraction.Contract.psg)
  in
  (* non-delayed ranks accumulated wait at the barrier *)
  match Profdata.find_row data ~vertex:barrier_vertex.Vertex.id with
  | Some r when r.seq.(1) > 0 ->
      check_bool "rank1 waited" true (r.wait.(1) > 0.001);
      check_int "calls counted" 1 r.calls.(1);
      check_bool "rank0 did not wait" true (r.wait.(0) < 0.001)
  | _ -> Alcotest.fail "barrier vector missing on rank 1"

let test_record_prob_zero () =
  let prog = ring_program ~niter:10 () in
  let config = { Profiler.default_config with record_prob = 0.0 } in
  let _, _, data, _ = profiled_run ~config ~nprocs:4 prog in
  check_int "no comm records" 0 (Profdata.n_p2p data + Profdata.n_coll data)

let test_record_prob_one_dependence () =
  let prog = ring_program ~niter:10 () in
  let config = { Profiler.default_config with record_prob = 1.0 } in
  let _, _, data, _ = profiled_run ~config ~nprocs:4 prog in
  (* every rank's sendrecv edge to its left neighbour is recorded *)
  check_bool "p2p edges" true (Profdata.n_p2p data >= 4);
  check_int "one collective vertex" 1 (Profdata.n_coll data)

let test_icall_resolution () =
  let prog = recursion_program () in
  let _, _, data, _ = profiled_run ~nprocs:4 prog in
  let targets =
    Profdata.icall_resolutions data
    |> List.map (fun (r : Profdata.icall_resolution) -> r.target)
    |> List.sort_uniq compare
  in
  (* ranks 0,2 call alpha; ranks 1,3 call beta *)
  Alcotest.(check (list string)) "both targets" [ "alpha"; "beta" ] targets

let test_storage_accounting () =
  let prog = ring_program ~niter:10 () in
  let _, _, data, _ = profiled_run ~nprocs:8 prog in
  let bytes = Profdata.storage_bytes data in
  check_bool "positive" true (bytes > 0);
  (* kilobyte order for a toy program, not megabytes *)
  check_bool "small" true (bytes < 100_000);
  check_bool "touched vertices listed" true
    (List.length (Profdata.touched_vertices data) > 0)

let test_across_ranks () =
  let prog = ring_program ~niter:10 ~work:2_000_000 () in
  let contraction, _, data, _ = profiled_run ~nprocs:4 prog in
  let work_vertex =
    List.hd
      (Psg.find_all
         (fun v ->
           match v.Vertex.kind with
           | Vertex.Comp { label = Some "work"; _ } -> true
           | _ -> false)
         contraction.Contract.psg)
  in
  match Profdata.find_row data ~vertex:work_vertex.Vertex.id with
  | Some r ->
      check_int "one slot per rank" 4 (Array.length r.seq);
      Array.iter
        (fun s -> check_bool "every rank sampled the hot loop" true (s > 0))
        r.seq
  | None -> Alcotest.fail "work vertex has no data"

(* --- timeline --- *)

let timeline_run ?tconfig ?cost ?(nprocs = 4) prog =
  let _, _, _, index = static_of prog in
  let recorder = Timeline.create ?config:tconfig ~index ~nprocs () in
  let cfg = Exec.config ~nprocs ?cost ~tools:[ Timeline.tool recorder ] () in
  let result = Exec.run ~cfg prog in
  (Timeline.capture recorder, result)

let test_timeline_records () =
  let prog = ring_program ~niter:10 ~work:500_000 () in
  let tl, result = timeline_run ~nprocs:4 prog in
  check_int "nprocs" 4 tl.Timeline.nprocs;
  check_float "elapsed" result.Exec.elapsed tl.Timeline.elapsed;
  let has_kind p =
    Array.exists (fun iv -> p iv.Timeline.iv_kind) tl.Timeline.intervals
  in
  check_bool "compute intervals" true
    (has_kind (function Timeline.Compute _ -> true | _ -> false));
  check_bool "mpi intervals" true
    (has_kind (function Timeline.Mpi _ -> true | _ -> false));
  (* every rank contributed, and each per-rank stream is time-ordered *)
  for rank = 0 to 3 do
    let ivs =
      Array.to_list tl.Timeline.intervals
      |> List.filter (fun iv -> iv.Timeline.iv_rank = rank)
    in
    check_bool "rank has intervals" true (ivs <> []);
    let rec ordered = function
      | a :: (b :: _ as rest) ->
          a.Timeline.iv_start <= b.Timeline.iv_start && ordered rest
      | _ -> true
    in
    check_bool "rank stream ordered" true (ordered ivs)
  done;
  (* the ring sendrecv produced matched messages with sane timestamps *)
  check_bool "messages recorded" true (Array.length tl.Timeline.messages > 0);
  Array.iter
    (fun m ->
      check_bool "send precedes arrival" true
        (m.Timeline.msg_send_time <= m.Timeline.msg_arrival))
    tl.Timeline.messages;
  check_int "nothing dropped" 0 (Timeline.total_dropped tl)

let test_timeline_compression () =
  (* fig3's inner loops run the same comp vertex back to back, so the
     vertex-keyed merge must collapse those streaks *)
  let prog = fig3_program () in
  let tl, _ = timeline_run ~nprocs:4 prog in
  check_bool "merged some intervals" true (tl.Timeline.merged > 0);
  check_bool "a multi-iteration slice" true
    (Array.exists
       (fun iv -> iv.Timeline.iv_merged > 1)
       tl.Timeline.intervals)

let test_timeline_truncation () =
  let prog = ring_program ~niter:20 ~work:500_000 () in
  let full, _ = timeline_run ~nprocs:4 prog in
  let capped, _ =
    timeline_run ~tconfig:{ Timeline.max_events = 8 } ~nprocs:4 prog
  in
  check_bool "events dropped" true (Timeline.total_dropped capped > 0);
  check_bool "cap respected" true
    (Array.length capped.Timeline.intervals
     + Array.length capped.Timeline.messages
    <= 8);
  (* blocked-time accounting survives truncation untouched *)
  check_bool "some blocked time" true (Timeline.total_blocked full > 0.0);
  check_float "blocked preserved" (Timeline.total_blocked full)
    (Timeline.total_blocked capped);
  (* a compute interval recorded before the cap never absorbs the
     compute that follows a dropped event *)
  let longest (tl : Timeline.t) =
    Array.fold_left
      (fun acc (iv : Timeline.interval) ->
        Float.max acc (iv.iv_stop -. iv.iv_start))
      0.0 tl.intervals
  in
  check_bool "no interval spans dropped events" true
    (longest capped <= longest full)

let test_timeline_zero_overhead () =
  (* the recorder is an idealized observer: identical clocks either way *)
  let prog = ring_program ~niter:20 ~work:1_000_000 () in
  let bare = run ~nprocs:4 prog in
  let _, instrumented = timeline_run ~nprocs:4 prog in
  check_float "idealized observer" bare.Exec.elapsed instrumented.Exec.elapsed

(* profiler overhead is charged to the clocks *)
let test_profiler_overhead_positive () =
  let prog = ring_program ~niter:30 ~work:2_000_000 () in
  let bare = run ~nprocs:4 prog in
  let _, _, _, instrumented = profiled_run ~nprocs:4 prog in
  check_bool "overhead positive" true
    (instrumented.Exec.elapsed > bare.Exec.elapsed);
  check_bool "overhead below 20%" true
    (instrumented.Exec.elapsed < 1.2 *. bare.Exec.elapsed)

(* --- call-context sites --- *)

(* A tool that checks the site contract on every event it sees: within
   one run a site names one (callpath, loc), and the memoized lookup
   equals [Index.find] on that pair, unresolved results included.
   Returns the tool and its count of checked contexts. *)
let site_checker index =
  let named = Hashtbl.create 64 in
  let memo = Index.memo index in
  let checked = ref 0 in
  let show callpath loc =
    String.concat ">" (List.map Loc.to_string (callpath @ [ loc ]))
  in
  let check ~site ~callpath ~loc =
    incr checked;
    (match Hashtbl.find_opt named site with
    | None -> Hashtbl.add named site (callpath, loc)
    | Some (cp, l) ->
        if not (List.equal Loc.equal cp callpath && Loc.equal l loc) then
          Alcotest.failf "site %d names both %s and %s" site (show cp l)
            (show callpath loc));
    if
      Index.find_site memo ~site ~callpath ~loc
      <> Index.find index ~callpath ~loc
    then
      Alcotest.failf "site %d (%s): memo disagrees with Index.find" site
        (show callpath loc)
  in
  let on_ctx (ctx : Instrument.ctx) =
    check ~site:ctx.site ~callpath:ctx.callpath ~loc:ctx.loc
  in
  let tool =
    {
      (Instrument.nil "site-check") with
      on_interval =
        (fun ctx ~stop:_ _ ->
          on_ctx ctx;
          0.0);
      on_mpi_exit =
        (fun ctx info ->
          on_ctx ctx;
          List.iter
            (fun (d : Instrument.peer_dep) ->
              check ~site:d.peer_site ~callpath:d.peer_callpath
                ~loc:d.peer_loc)
            info.deps;
          0.0);
      on_icall =
        (fun ctx ~target:_ ->
          on_ctx ctx;
          0.0);
    }
  in
  (tool, checked)

(* One run with the profiler and a fresh checker attached side by side;
   returns the number of checked contexts. *)
let checked_run ?params ?cost ~index ~nprocs prog =
  let profiler = Profiler.create ~index ~nprocs () in
  let checker, checked = site_checker index in
  let cfg =
    Exec.config ~nprocs ?params ?cost
      ~tools:[ Profiler.tool profiler; checker ]
      ()
  in
  ignore (Exec.run ~cfg prog : Exec.result);
  !checked

let test_sites_registry () =
  List.iter
    (fun (e : Scalana_apps.Registry.entry) ->
      let prog = e.make () in
      let _, _, _, index = static_of prog in
      List.iter
        (fun nprocs ->
          let n = checked_run ~cost:e.cost ~index ~nprocs prog in
          check_bool (Printf.sprintf "%s np=%d checked" e.name nprocs) true
            (n > 0))
        [ 4; 16 ])
    Scalana_apps.Registry.all

(* Recursion and an indirect call, before and after the run that
   splices the icall targets into the index. *)
let test_sites_recursive_indirect () =
  let static = Scalana.Static.analyze (recursion_program ()) in
  let index = static.Scalana.Static.index in
  let before = checked_run ~index ~nprocs:4 static.program in
  ignore (Scalana.Prof.run static ~nprocs:4 () : Scalana.Prof.run);
  let after = checked_run ~index ~nprocs:4 static.program in
  check_bool "contexts checked" true (before > 0 && after > 0)

(* Each elastic epoch is its own run, with its own site numbering. *)
let test_sites_elastic () =
  let e = List.hd Scalana_apps.Registry.elastic in
  let plan = Option.get e.elastic_plan in
  let prog = e.make () in
  let _, _, _, index = static_of prog in
  let epochs, _ = Elastic.membership plan ~nprocs:8 in
  check_bool "membership changes" true (List.length epochs > 1);
  List.iter
    (fun (ep : Elastic.epoch) ->
      let params =
        [ (plan.lo_param, ep.e_lo); (plan.hi_param, ep.e_hi) ]
      in
      let n =
        checked_run ~params ~cost:e.cost ~index
          ~nprocs:(Array.length ep.e_members) prog
      in
      check_bool "epoch checked" true (n > 0))
    epochs

(* An indirect call whose targets carry enough work to be sampled. *)
let icall_program () =
  let open Expr.Infix in
  let b = Builder.create ~file:"icall.mmp" ~name:"icall" () in
  let target name =
    Builder.func b name (fun () ->
        [
          Builder.comp b ~label:(name ^ "_work") ~flops:(i 20_000_000)
            ~mem:(i 20_000_000) ();
        ])
  in
  target "alpha";
  target "beta";
  Builder.func b "main" (fun () ->
      [
        Builder.loop b ~var:"it" ~count:(i 20) (fun () ->
            [
              Builder.icall b ~selector:(rank % i 2) [ "alpha"; "beta" ];
              Builder.barrier b;
            ]);
      ]);
  Builder.program b

let samples_on (data : Profdata.t) vertex =
  match Profdata.find_row data ~vertex with
  | Some r -> Array.fold_left ( + ) 0 r.samples
  | None -> 0

(* A site memo lives for one run: the first run's refinement splices
   alpha's subtree into the index, and the second run must attribute
   alpha's samples there, not to the callsite the first run resolved
   the same site to. *)
let test_memo_per_run () =
  let static = Scalana.Static.analyze (icall_program ()) in
  let callsite =
    List.hd
      (Psg.find_all
         (fun v ->
           match v.Vertex.kind with
           | Vertex.Callsite { callee = None; _ } -> true
           | _ -> false)
         (Scalana.Static.psg static))
  in
  let first = Scalana.Prof.run static ~nprocs:4 () in
  check_bool "first run samples the callsite" true
    (samples_on first.data callsite.Vertex.id > 0);
  let alpha =
    Psg.find_all
      (fun v ->
        match v.Vertex.kind with
        | Vertex.Comp { label = Some "alpha_work"; _ } -> true
        | _ -> false)
      (Scalana.Static.psg static)
  in
  check_int "alpha spliced once" 1 (List.length alpha);
  let second = Scalana.Prof.run static ~nprocs:4 () in
  check_bool "second run samples the spliced vertex" true
    (samples_on second.data (List.hd alpha).Vertex.id > 0)

(* A sampling frequency that is not a finite positive rate would step
   the tick clock backwards (never terminating) or record no samples at
   all: the profiler refuses it, and scalana-prof exits 2 naming the
   flag. *)
let test_freq_rejected () =
  let _, _, _, index = static_of (ring_program ()) in
  List.iter
    (fun freq ->
      match
        Profiler.create ~config:{ Profiler.default_config with freq } ~index
          ~nprocs:2 ()
      with
      | _ -> Alcotest.failf "freq=%g accepted" freq
      | exception Invalid_argument msg ->
          check_bool ("message names --freq: " ^ msg) true
            (try
               ignore (Str.search_forward (Str.regexp_string "--freq") msg 0);
               true
             with Not_found -> false))
    [ -1.0; 0.0; Float.nan; Float.infinity ];
  let dir = Filename.temp_file "scalana" "" in
  Sys.remove dir;
  Scalana.Artifact.save_static dir
    (Scalana.Static.analyze ((Scalana_apps.Registry.find "cg").make ()));
  List.iter
    (fun freq ->
      check_int ("scalana-prof --freq=" ^ freq ^ " exits 2") 2
        (Sys.command
           (Printf.sprintf
              "timeout 30 ../bin/scalana_prof.exe -s %s -n 2 --freq=%s 2>/dev/null"
              (Filename.quote dir) freq)))
    [ "-1"; "0"; "nan" ]

let () =
  Alcotest.run "profile"
    [
      ("perfvec", [ Alcotest.test_case "accumulate/merge" `Quick test_perfvec ]);
      ( "commrec",
        [
          Alcotest.test_case "p2p compression" `Quick test_commrec_compression;
          Alcotest.test_case "repeat allocates nothing" `Quick
            test_commrec_repeat_allocates_nothing;
          Alcotest.test_case "collective histogram" `Quick
            test_commrec_collectives;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "density" `Quick test_sampling_density;
          Alcotest.test_case "hot-vertex attribution" `Quick
            test_attribution_targets_hot_vertex;
          Alcotest.test_case "wait on MPI vertex" `Quick
            test_wait_recorded_on_mpi_vertex;
        ] );
      ( "interposition",
        [
          Alcotest.test_case "record_prob=0" `Quick test_record_prob_zero;
          Alcotest.test_case "record_prob=1 dependence" `Quick
            test_record_prob_one_dependence;
          Alcotest.test_case "icall resolution" `Quick test_icall_resolution;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "storage" `Quick test_storage_accounting;
          Alcotest.test_case "across ranks" `Quick test_across_ranks;
          Alcotest.test_case "overhead charged" `Quick
            test_profiler_overhead_positive;
          Alcotest.test_case "bad --freq rejected" `Quick test_freq_rejected;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "records intervals and messages" `Quick
            test_timeline_records;
          Alcotest.test_case "vertex-keyed compression" `Quick
            test_timeline_compression;
          Alcotest.test_case "truncation keeps blocked totals" `Quick
            test_timeline_truncation;
          Alcotest.test_case "zero overhead" `Quick
            test_timeline_zero_overhead;
        ] );
      ( "sites",
        [
          Alcotest.test_case "registry np 4/16" `Quick test_sites_registry;
          Alcotest.test_case "recursive and indirect" `Quick
            test_sites_recursive_indirect;
          Alcotest.test_case "elastic epochs" `Quick test_sites_elastic;
          Alcotest.test_case "memo per run" `Quick test_memo_per_run;
        ] );
    ]
