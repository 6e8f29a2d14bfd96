(* Tests for the baseline tools: the Scalasca-like tracer's cost model
   and the HPCToolkit-like call-path profiler. *)

open Scalana_runtime
open Scalana_baselines
open Testutil

(* --- tracer --- *)

let test_tracer_counts_and_bytes () =
  let tr = Tracer.create () in
  let prog = ring_program ~niter:5 () in
  ignore (run ~nprocs:4 ~tools:[ Tracer.tool tr ] prog);
  check_bool "events logged" true (Tracer.n_events tr > 0);
  check_int "bytes = events x 40" (Tracer.n_events tr * 40)
    (Tracer.storage_bytes tr)

let test_tracer_sub_regions () =
  (* a bigger computation produces more traced sub-regions (bytes) *)
  let run_with work =
    let tr = Tracer.create () in
    ignore (run ~nprocs:2 ~tools:[ Tracer.tool tr ] (ring_program ~niter:2 ~work ()));
    Tracer.storage_bytes tr
  in
  check_bool "storage grows with work" true
    (run_with 10_000_000 > run_with 10_000)

let test_tracer_overhead_charged () =
  let prog = ring_program ~niter:20 ~work:2_000_000 () in
  let bare = run ~nprocs:4 prog in
  let tr = Tracer.create () in
  let traced = run ~nprocs:4 ~tools:[ Tracer.tool tr ] prog in
  check_bool "tracing slows the run" true
    (traced.Exec.elapsed > bare.Exec.elapsed)

(* --- cct / callprof --- *)

let test_cct_nodes_and_merge () =
  let cp = Callprof.create ~nprocs:4 () in
  let prog = delayed_barrier_program () in
  ignore (run ~nprocs:4 ~tools:[ Callprof.tool cp ] prog);
  let cct = Callprof.cct cp in
  check_bool "nodes exist" true (Cct.n_nodes cct > 0);
  check_int "storage" (Cct.n_nodes cct * Cct.bytes_per_node)
    (Cct.storage_bytes cct);
  let merged = Cct.merge cct in
  check_bool "merged nonempty" true (merged <> []);
  (* merged entries never report more ranks than exist *)
  List.iter
    (fun (m : Cct.merged) ->
      check_bool "ranks bounded" true (m.Cct.m_ranks >= 1 && m.Cct.m_ranks <= 4))
    merged

let test_callprof_finds_bottleneck_points () =
  let cp = Callprof.create ~nprocs:4 () in
  let prog = delayed_barrier_program () in
  ignore (run ~nprocs:4 ~tools:[ Callprof.tool cp ] prog);
  let spots = Callprof.hotspots ~top:5 cp in
  check_bool "hotspots found" true (spots <> []);
  (* the slow loop and the barrier both appear: symptoms, no causality *)
  let time_of_mpi =
    List.exists (fun (h : Callprof.hotspot) -> h.hs_is_mpi) spots
  in
  let has_comp =
    List.exists (fun (h : Callprof.hotspot) -> not h.hs_is_mpi) spots
  in
  check_bool "MPI symptom listed" true time_of_mpi;
  check_bool "compute point listed" true has_comp;
  (* imbalance of the rank-0-only loop is visible *)
  let imbalanced =
    List.exists (fun (h : Callprof.hotspot) -> h.hs_imbalance > 2.0) spots
  in
  check_bool "imbalance surfaced" true imbalanced

let test_callprof_overhead_charged () =
  let prog = ring_program ~niter:20 ~work:2_000_000 () in
  let bare = run ~nprocs:4 prog in
  let cp = Callprof.create ~nprocs:4 () in
  let profiled = run ~nprocs:4 ~tools:[ Callprof.tool cp ] prog in
  check_bool "profiling slows the run" true
    (profiled.Exec.elapsed > bare.Exec.elapsed)

(* --- cross-tool ordering (Table I property) --- *)

let test_overhead_and_storage_ordering () =
  let entry = Scalana_apps.Registry.find "cg" in
  let prog = entry.make () in
  let ms = Scalana.Experiment.tool_comparison ~cost:entry.cost prog ~nprocs:16 in
  let find k =
    List.find (fun (m : Scalana.Experiment.measurement) -> m.tool = k) ms
  in
  let tr = find Scalana.Experiment.Tracing_tool in
  let cp = find Scalana.Experiment.Callpath_tool in
  let sa = find Scalana.Experiment.Scalana_tool in
  check_bool "tracing storage dominates" true
    (tr.storage_bytes > 10 * cp.storage_bytes
    && tr.storage_bytes > 10 * sa.storage_bytes);
  check_bool "tracing overhead largest" true
    (tr.overhead_pct > cp.overhead_pct && tr.overhead_pct > sa.overhead_pct);
  check_bool "scalana cheapest" true (sa.overhead_pct <= cp.overhead_pct)


let () =
  Alcotest.run "baselines"
    [
      ( "tracer",
        [
          Alcotest.test_case "counts and bytes" `Quick
            test_tracer_counts_and_bytes;
          Alcotest.test_case "sub-region volume" `Quick test_tracer_sub_regions;
          Alcotest.test_case "overhead charged" `Quick
            test_tracer_overhead_charged;
        ] );
      ( "callprof",
        [
          Alcotest.test_case "cct nodes and merge" `Quick
            test_cct_nodes_and_merge;
          Alcotest.test_case "bottleneck points, no causality" `Quick
            test_callprof_finds_bottleneck_points;
          Alcotest.test_case "overhead charged" `Quick
            test_callprof_overhead_charged;
        ] );
      ( "comparison",
        [
          Alcotest.test_case "Table I ordering" `Quick
            test_overhead_and_storage_ordering;
        ] );
    ]
