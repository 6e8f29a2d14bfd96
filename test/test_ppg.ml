(* Tests for PPG construction and the cross-scale container, plus the
   columnar store's safety net: a differential-equivalence suite that
   profiles every registry config with both the boxed profiler feeding
   the frozen pre-columnar builder (Boxed_profile, Ppg_reference) and
   the production profiler feeding Ppg.build, and asserts
   accessor-digest and cell-level equality; and seeded properties for
   sparse-coverage round-trips through the columns. *)

open Scalana_mlang
open Scalana_psg
open Scalana_runtime
open Scalana_profile
open Scalana_ppg
open Testutil

let profile ?(nprocs = 4) ?(record_prob = 1.0) prog =
  let locals = Intra.build_all prog in
  let full = Inter.build ~locals prog in
  let contraction = Contract.run full in
  let index = Index.build ~full ~contraction in
  let config = { Profiler.default_config with record_prob } in
  let profiler = Profiler.create ~config ~index ~nprocs () in
  let cfg = Exec.config ~nprocs ~tools:[ Profiler.tool profiler ] () in
  ignore (Exec.run ~cfg prog);
  (contraction.Contract.psg, Profiler.data profiler)

(* late-sender chain: rank r+1 waits on rank r's send *)
let chain_program () =
  let open Expr.Infix in
  let b = Builder.create ~file:"chain.mmp" ~name:"chain" () in
  Builder.func b "main" (fun () ->
      [
        Builder.loop b ~label:"steps" ~var:"s" ~count:(i 6) (fun () ->
            [
              Builder.branch b
                ~cond:(rank = i 0)
                (fun () ->
                  [
                    Builder.comp b ~label:"origin" ~flops:(i 40_000_000)
                      ~mem:(i 15_000_000) ();
                  ]);
              Builder.branch b
                ~cond:(rank > i 0)
                (fun () ->
                  [
                    Builder.recv b ~src:(rank - i 1) ~tag:(i 1)
                      ~bytes:(i 4096) ();
                  ]);
              Builder.branch b
                ~cond:(rank < np - i 1)
                (fun () ->
                  [
                    Builder.send b ~dest:(rank + i 1) ~tag:(i 1)
                      ~bytes:(i 4096) ();
                  ]);
              Builder.allreduce b ~bytes:(i 8);
            ]);
      ]);
  Builder.program b

let test_ppg_comm_edges () =
  let psg, data = profile (chain_program ()) in
  let ppg = Ppg.build ~psg data in
  check_bool "edges exist" true (Ppg.n_comm_edges ppg > 0);
  (* rank 2's recv has an incoming edge from rank 1 *)
  let recv_vertex =
    List.find
      (fun v ->
        match v.Vertex.kind with
        | Vertex.Mpi (Ast.Recv _) -> true
        | _ -> false)
      (Psg.find_all Vertex.is_mpi psg)
  in
  let edges = Ppg.incoming_edges ppg ~rank:2 ~vertex:recv_vertex.Vertex.id in
  check_bool "rank2 incoming" true (edges <> []);
  List.iter
    (fun (e : Ppg.comm_edge) -> check_int "sender is rank 1" 1 e.send_rank)
    edges

let test_ppg_waiting_edges_filter () =
  let psg, data = profile (chain_program ()) in
  let ppg = Ppg.build ~psg data in
  let recv_vertex =
    List.find
      (fun v ->
        match v.Vertex.kind with Vertex.Mpi (Ast.Recv _) -> true | _ -> false)
      (Psg.find_all Vertex.is_mpi psg)
  in
  (* rank 1 waits on rank 0's origin delay: critical edge present *)
  (match Ppg.critical_edge ppg ~rank:1 ~vertex:recv_vertex.Vertex.id with
  | Some e ->
      check_int "from rank 0" 0 e.Ppg.send_rank;
      check_bool "waited" true e.Ppg.has_wait
  | None -> Alcotest.fail "rank 1 should have a waiting edge");
  (* waiting_edges is a subset of incoming_edges *)
  let all = Ppg.incoming_edges ppg ~rank:1 ~vertex:recv_vertex.Vertex.id in
  let waiting = Ppg.waiting_edges ppg ~rank:1 ~vertex:recv_vertex.Vertex.id in
  check_bool "subset" true (List.length waiting <= List.length all)

let test_ppg_coll_late_rank () =
  let psg, data = profile (chain_program ()) in
  let ppg = Ppg.build ~psg data in
  let allreduce =
    List.find
      (fun v ->
        match v.Vertex.kind with
        | Vertex.Mpi (Ast.Allreduce _) -> true
        | _ -> false)
      (Psg.find_all Vertex.is_mpi psg)
  in
  match Ppg.coll_late_rank ppg ~vertex:allreduce.Vertex.id with
  | Some late -> check_int "last rank arrives last" 3 late
  | None -> Alcotest.fail "no collective record"

let test_ppg_times () =
  let psg, data = profile (chain_program ()) in
  let ppg = Ppg.build ~psg data in
  let origin =
    List.find
      (fun v ->
        match v.Vertex.kind with
        | Vertex.Comp { label = Some "origin"; _ } -> true
        | _ -> false)
      (Psg.find_all Vertex.is_comp psg)
  in
  let times = Ppg.times_across_ranks ppg ~vertex:origin.Vertex.id in
  check_bool "rank0 dominates" true
    (times.(0) > times.(1) && times.(0) > times.(2) && times.(0) > times.(3));
  check_bool "total positive" true (Ppg.total_time ppg > 0.0)

let test_crossscale () =
  let prog = chain_program () in
  let psg, d4 = profile ~nprocs:4 prog in
  let _, d8 = profile ~nprocs:8 prog in
  let cs = Crossscale.create ~psg [ (8, d8); (4, d4) ] in
  Alcotest.(check (list int)) "scales sorted" [ 4; 8 ] (Crossscale.scales cs);
  let n, _ = Crossscale.largest cs in
  check_int "largest" 8 n;
  check_bool "ppg at 4 exists" true (Crossscale.ppg_at cs ~nprocs:4 <> None);
  check_bool "ppg at 16 missing" true (Crossscale.ppg_at cs ~nprocs:16 = None);
  let touched = Crossscale.touched_vertices cs in
  check_bool "touched nonempty" true (touched <> []);
  (* series per vertex has one entry per scale with per-rank arrays *)
  let v = List.hd touched in
  let series = Crossscale.series cs ~vertex:v in
  check_int "two points" 2 (List.length series);
  List.iter
    (fun (n, arr) -> check_int "array width" n (Array.length arr))
    series

(* --- differential equivalence against the frozen pre-columnar builder ---

   Every accessor of the production store, digested and compared against
   Ppg_reference built from the boxed profile of the same deterministic
   config, over the full Table II
   registry at np in {4, 16, 64}, clean and under a fault plan that
   exercises every degraded shape the columns must carry: a killed rank
   (absent cells), a skewed clock (asymmetric values), and poisoned
   metrics (NaN and negative cells that must survive bit-for-bit).
   Mirrors the 66-digest engine pin of the simulator rework. *)

(* Everything observable about a PPG, as first-class accessors, so the
   digest below is computed by one function for both implementations. *)
type view = {
  v_nprocs : int;
  v_touched : int list;
  v_effective : float;
  v_total_time : float;
  v_n_comm_edges : int;
  v_time_of : rank:int -> vertex:int -> float;
  v_wait_of : rank:int -> vertex:int -> float;
  v_times : vertex:int -> float array;
  v_waits : vertex:int -> float array;
  v_coverage : vertex:int -> float;
  v_total_wait : vertex:int -> float;
  v_incoming : rank:int -> vertex:int -> (int * int * bool * float * int) list;
  v_critical : rank:int -> vertex:int -> (int * int * bool * float * int) option;
  v_coll_late : vertex:int -> int option;
}

let view_of_ppg (p : Ppg.t) =
  let edge (e : Ppg.comm_edge) =
    (e.Ppg.send_rank, e.Ppg.send_vertex, e.Ppg.has_wait, e.Ppg.max_wait, e.Ppg.hits)
  in
  {
    v_nprocs = p.Ppg.nprocs;
    v_touched = Ppg.touched_vertices p;
    v_effective = Ppg.effective_nprocs p;
    v_total_time = Ppg.total_time p;
    v_n_comm_edges = Ppg.n_comm_edges p;
    v_time_of = (fun ~rank ~vertex -> Ppg.time_of p ~rank ~vertex);
    v_wait_of = (fun ~rank ~vertex -> Ppg.wait_of p ~rank ~vertex);
    v_times = (fun ~vertex -> Ppg.times_across_ranks p ~vertex);
    v_waits = (fun ~vertex -> Ppg.waits_across_ranks p ~vertex);
    v_coverage = (fun ~vertex -> Ppg.coverage p ~vertex);
    v_total_wait = (fun ~vertex -> Ppg.total_wait p ~vertex);
    v_incoming =
      (fun ~rank ~vertex ->
        List.map edge (Ppg.incoming_edges p ~rank ~vertex));
    v_critical =
      (fun ~rank ~vertex ->
        Option.map edge (Ppg.critical_edge p ~rank ~vertex));
    v_coll_late = (fun ~vertex -> Ppg.coll_late_rank p ~vertex);
  }

let view_of_reference (p : Ppg_reference.t) =
  let edge (e : Ppg_reference.comm_edge) =
    ( e.Ppg_reference.send_rank,
      e.Ppg_reference.send_vertex,
      e.Ppg_reference.has_wait,
      e.Ppg_reference.max_wait,
      e.Ppg_reference.hits )
  in
  {
    v_nprocs = p.Ppg_reference.nprocs;
    v_touched = Ppg_reference.touched_vertices p;
    v_effective = Ppg_reference.effective_nprocs p;
    v_total_time = Ppg_reference.total_time p;
    v_n_comm_edges = Ppg_reference.n_comm_edges p;
    v_time_of = (fun ~rank ~vertex -> Ppg_reference.time_of p ~rank ~vertex);
    v_wait_of = (fun ~rank ~vertex -> Ppg_reference.wait_of p ~rank ~vertex);
    v_times = (fun ~vertex -> Ppg_reference.times_across_ranks p ~vertex);
    v_waits = (fun ~vertex -> Ppg_reference.waits_across_ranks p ~vertex);
    v_coverage = (fun ~vertex -> Ppg_reference.coverage p ~vertex);
    v_total_wait = (fun ~vertex -> Ppg_reference.total_wait p ~vertex);
    v_incoming =
      (fun ~rank ~vertex ->
        List.map edge (Ppg_reference.incoming_edges p ~rank ~vertex));
    v_critical =
      (fun ~rank ~vertex ->
        Option.map edge (Ppg_reference.critical_edge p ~rank ~vertex));
    v_coll_late = (fun ~vertex -> Ppg_reference.coll_late_rank p ~vertex);
  }

(* Digest every accessor over every (vertex, rank) cell, one digest per
   accessor so a mismatch names the diverging component.  Marshal keeps
   float bit patterns (NaN included), so the digests pin values to the
   last bit, not to a print precision. *)
let component_digests v =
  (* No_sharing: the boxed reference store can return the same physical
     float box (the static 0.0) for many cells, which sharing-aware
     marshaling encodes as back-references; the digest must depend on
     values alone *)
  let d x =
    Digest.to_hex (Digest.string (Marshal.to_string x [ Marshal.No_sharing ]))
  in
  let per_vertex f = List.map (fun vertex -> f ~vertex) v.v_touched in
  let per_cell f =
    per_vertex (fun ~vertex ->
        List.init v.v_nprocs (fun rank -> f ~rank ~vertex))
  in
  [
    ( "header",
      d
        ( v.v_nprocs,
          v.v_touched,
          v.v_effective,
          v.v_total_time,
          v.v_n_comm_edges ) );
    ("times_across_ranks", d (per_vertex v.v_times));
    ("waits_across_ranks", d (per_vertex v.v_waits));
    ("coverage", d (per_vertex v.v_coverage));
    ("total_wait", d (per_vertex v.v_total_wait));
    ("coll_late_rank", d (per_vertex v.v_coll_late));
    ("time_of", d (per_cell v.v_time_of));
    ("wait_of", d (per_cell v.v_wait_of));
    ("incoming_edges", d (per_cell v.v_incoming));
    ("critical_edge", d (per_cell v.v_critical));
  ]

(* Kill + skew + poison: one absent-cell shape, one asymmetric-value
   shape, and NaN/negative cells the columns must preserve verbatim. *)
let diff_fault_plan =
  Faults.plan ~seed:7
    [
      Faults.kill_rank ~rank:1 ~after:1e-5 ();
      Faults.clock_skew ~rank:0 ~factor:1.7;
      Faults.poison_metric ~prob:0.15 `Nan;
      Faults.poison_metric ~prob:0.1 `Negative;
    ]

(* Each side profiles its own run of the same deterministic config:
   attaching both tools to one run would double the charged overhead.
   The production side is Scalana.Prof feeding the Ppg.build freeze; the
   reference side is the boxed profiler feeding Ppg_reference. *)
let profile_pair ?faults ?elastic (entry : Scalana_apps.Registry.entry) ~nprocs
    =
  let cost = entry.Scalana_apps.Registry.cost in
  let analyze () = Scalana.Static.analyze (entry.Scalana_apps.Registry.make ()) in
  let static = analyze () and static_ref = analyze () in
  let data, boxed =
    match elastic with
    | Some plan ->
        ( (Scalana.Prof.run_elastic ~cost ~plan static ~nprocs ()).Scalana.Prof.data,
          Boxed_profile.run_elastic ~cost ~plan static_ref ~nprocs )
    | None ->
        ( (Scalana.Prof.run ?faults ~cost static ~nprocs ()).Scalana.Prof.data,
          Boxed_profile.run ?faults ~cost static_ref ~nprocs )
  in
  (Scalana.Static.psg static, data, Scalana.Static.psg static_ref, boxed)

let test_differential_registry () =
  let checked = ref 0 in
  List.iter
    (fun (entry : Scalana_apps.Registry.entry) ->
      List.iter
        (fun nprocs ->
          List.iter
            (fun (mode, faults) ->
              let psg, data, psg_ref, boxed = profile_pair ?faults entry ~nprocs in
              let columnar = component_digests (view_of_ppg (Ppg.build ~psg data)) in
              let reference =
                component_digests
                  (view_of_reference (Ppg_reference.build ~psg:psg_ref boxed))
              in
              List.iter2
                (fun (name, r) (name', c) ->
                  assert (String.equal name name');
                  check_string
                    (Printf.sprintf "%s np=%d %s: %s"
                       entry.Scalana_apps.Registry.name nprocs mode name)
                    r c)
                reference columnar;
              incr checked)
            [ ("clean", None); ("faulted", Some diff_fault_plan) ])
        [ 4; 16; 64 ])
    Scalana_apps.Registry.all;
  (* the full pin: 11 apps x 3 scales x clean+faulted *)
  check_int "66 digests compared" 66 !checked

(* --- cell-level differential: columnar profile vs boxed profile --- *)

module B = Boxed_profile

let bits = Int64.bits_of_float

(* Every column of every reported cell, bit for bit, plus the edge sets,
   collective histograms, counters and the storage model. *)
let count a rank = if Array.length a = 0 then 0 else a.(rank)

let check_profiles label (data : Profdata.t) (boxed : B.Profdata.t) =
  let ck name = check_bool (label ^ ": " ^ name) true in
  ck "touched"
    (Profdata.touched_vertices data = B.Profdata.touched_vertices boxed);
  let cells = ref 0 in
  B.Profdata.iter_cells boxed (fun ~rank ~vertex (v : B.Perfvec.t) ->
      incr cells;
      let ok =
        match Profdata.find_row data ~vertex with
        | None -> false
        | Some r ->
            let p = v.B.Perfvec.pmu in
            r.seq.(rank) > 0
            && List.for_all2
                 (fun a b -> bits a = bits b)
                 (List.map
                    (fun col -> Profdata.cell col rank)
                    [ r.time; r.tot_ins; r.tot_lst_ins; r.tot_cyc;
                      r.cache_miss; r.fp_ins; r.wait ])
                 [
                   v.time; p.Pmu.tot_ins; p.Pmu.tot_lst_ins; p.Pmu.tot_cyc;
                   p.Pmu.cache_miss; p.Pmu.fp_ins; v.wait;
                 ]
            && count r.samples rank = v.samples
            && count r.calls rank = v.calls
      in
      if not ok then
        Alcotest.failf "%s: cell rank=%d vertex=%d differs" label rank vertex);
  check_int (label ^ ": reported cells") !cells
    (Array.fold_left ( + ) 0 data.reported);
  let edges =
    List.init (Profdata.n_p2p data) (fun id ->
        let recv_rank, recv_row, send_rank, send_row, tag, bytes =
          Profdata.p2p_key data id
        in
        ( ( recv_rank, data.rows.(recv_row).vid, send_rank,
            data.rows.(send_row).vid, tag, bytes ),
          ( data.p2p_hits.(id), data.p2p_waited.(id) = 1,
            bits data.p2p_max_wait.(id) ) ))
  in
  let boxed_edges =
    List.map
      (fun (e : B.Commrec.p2p_edge) ->
        let k = e.key in
        ( ( k.recv_rank, k.recv_vertex, k.send_rank, k.send_vertex, k.tag,
            k.bytes ),
          (e.hits, e.has_wait, bits e.max_wait) ))
      (B.Commrec.p2p_edges boxed.B.Profdata.comm)
  in
  ck "p2p edges" (List.sort compare edges = List.sort compare boxed_edges);
  let hist =
    List.map
      (fun (id, row, rank) -> ((data.rows.(row).vid, rank), data.coll_hits.(id)))
      (Profdata.coll_entries data)
  in
  let boxed_hist =
    List.concat_map
      (fun (r : B.Commrec.coll_rec) ->
        Hashtbl.fold
          (fun rank n acc -> ((r.coll_vertex, rank), n) :: acc)
          r.last_arrivals [])
      (B.Commrec.coll_records boxed.B.Profdata.comm)
  in
  ck "collective histograms"
    (List.sort compare hist = List.sort compare boxed_hist);
  ck "counters"
    (( data.total_samples, data.unattributed_samples, data.mpi_calls_seen,
       data.records_taken, data.raw_records, bits data.elapsed,
       bits data.effective_nprocs )
    = ( boxed.total_samples, boxed.unattributed_samples,
        boxed.mpi_calls_seen, boxed.records_taken,
        boxed.comm.B.Commrec.raw_records, bits boxed.elapsed,
        bits boxed.effective_nprocs ));
  ck "icalls"
    (List.sort compare
       (List.map
          (fun (r : Profdata.icall_resolution) -> (r.callsite_vertex, r.target))
          (Profdata.icall_resolutions data))
    = List.sort compare
        (List.map
           (fun (r : B.Profdata.icall_resolution) -> (r.callsite_vertex, r.target))
           (B.Profdata.icall_resolutions boxed)));
  check_int (label ^ ": storage bytes") (B.Profdata.storage_bytes boxed)
    (Profdata.storage_bytes data)

(* the PPG digests too, so every case also pins the freeze's replayed
   orders (total_time, incoming lists, late-rank ties) *)
let check_pair label (psg, data, psg_ref, boxed) =
  check_profiles label data boxed;
  List.iter2
    (fun (name, r) (_, c) -> check_string (label ^ ": " ^ name) r c)
    (component_digests (view_of_reference (Ppg_reference.build ~psg:psg_ref boxed)))
    (component_digests (view_of_ppg (Ppg.build ~psg data)))

let test_cells_registry () =
  List.iter
    (fun (entry : Scalana_apps.Registry.entry) ->
      List.iter
        (fun nprocs ->
          check_pair
            (Printf.sprintf "%s np=%d" entry.Scalana_apps.Registry.name nprocs)
            (profile_pair entry ~nprocs))
        [ 4; 16 ])
    Scalana_apps.Registry.all

let test_cells_cg_weak () =
  check_pair "cg-weak np=1024"
    (profile_pair (Scalana_apps.Registry.find "cg-weak") ~nprocs:1024)

let test_cells_poisoned () =
  let faults =
    Faults.plan ~seed:11
      [ Faults.poison_metric ~prob:0.3 `Nan; Faults.poison_metric ~prob:0.3 `Negative ]
  in
  List.iter
    (fun name ->
      check_pair (name ^ " poisoned")
        (profile_pair ~faults (Scalana_apps.Registry.find name) ~nprocs:16))
    [ "zeusmp"; "lu"; "cg" ]

let test_cells_killed () =
  let faults = Faults.plan ~seed:3 [ Faults.kill_rank ~rank:2 ~after:1e-4 () ] in
  List.iter
    (fun name ->
      check_pair (name ^ " killed rank")
        (profile_pair ~faults (Scalana_apps.Registry.find name) ~nprocs:8))
    [ "zeusmp"; "cg"; "mg" ]

let test_cells_elastic () =
  List.iter
    (fun (entry : Scalana_apps.Registry.entry) ->
      check_pair (entry.Scalana_apps.Registry.name ^ " elastic")
        (profile_pair
           ~elastic:(Option.get entry.Scalana_apps.Registry.elastic_plan)
           entry ~nprocs:8))
    Scalana_apps.Registry.elastic

(* --- replayed fold orders ---

   The freeze replays the orders the boxed hash tables folded in: each
   rank's time sum (bucket order, newest insertion first on a collision,
   across table resizes), the incoming-edge lists and the late-rank
   ties.  Random workloads go into both stores, with random times (whose
   float sums depend on the order), enough entries to resize every
   table and sparse histograms full of ties; every digest must match. *)
let order_workload ~seed ~nprocs ~nvids ~ops =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n in
  let data = Profdata.create ~nprocs and boxed = B.Profdata.create ~nprocs in
  (* a record's own cell always reports, as in the profiler *)
  let wait rank vid =
    Profdata.add_wait data ~row:(Profdata.row_index data ~vertex:vid) ~rank
      ~calls:1 1e-3;
    B.Perfvec.add_wait (B.Profdata.vector boxed ~rank ~vertex:vid) ~wait:1e-3
  in
  for _ = 1 to ops do
    let rank = int nprocs and vid = int nvids in
    match int 4 with
    | 0 | 1 ->
        let time = Random.State.float st 1.0 in
        Profdata.add_sampled data ~row:(Profdata.row_index data ~vertex:vid)
          ~rank ~time ~samples:1;
        B.Perfvec.add_sampled (B.Profdata.vector boxed ~rank ~vertex:vid) ~time
          ~samples:1 ~pmu:Pmu.zero
    | 2 ->
        let send_rank = int nprocs and send_vid = int nvids in
        let tag = int 3 and bytes = 8 * int 3 in
        let wait_seconds = float_of_int (int 3) *. 1e-3 in
        wait rank vid;
        Profdata.record_p2p data ~recv_row:(Profdata.row_index data ~vertex:vid)
          ~recv_rank:rank ~send_row:(Profdata.row_index data ~vertex:send_vid)
          ~send_rank ~tag ~bytes ~waited:(wait_seconds > 0.0) ~wait_seconds;
        B.Commrec.record_p2p boxed.B.Profdata.comm
          ~key:
            {
              B.Commrec.recv_rank = rank;
              recv_vertex = vid;
              send_rank;
              send_vertex = send_vid;
              tag;
              bytes;
            }
          ~waited:(wait_seconds > 0.0) ~wait_seconds
    | _ ->
        let last = int nprocs in
        wait rank vid;
        Profdata.record_coll data ~row:(Profdata.row_index data ~vertex:vid)
          ~last_arrival_rank:last;
        B.Commrec.record_coll boxed.B.Profdata.comm ~vertex:vid
          ~last_arrival_rank:last
  done;
  (data, boxed)

let test_fold_orders () =
  let psg = fst (profile (chain_program ())) in
  List.iter
    (fun (nprocs, nvids, ops) ->
      for seed = 1 to 10 do
        let data, boxed = order_workload ~seed ~nprocs ~nvids ~ops in
        check_pair
          (Printf.sprintf "seed %d np=%d vids=%d" seed nprocs nvids)
          (psg, data, psg, boxed)
      done)
    [ (3, 300, 3000); (40, 6, 4000); (64, 40, 1500) ]

(* --- seeded properties for the columnar store --- *)

(* A hand-filled profile: an arbitrary sparse pattern of (rank, vertex)
   cells, some carrying NaN/negative poison, fed straight into the
   build.  The model is a plain association of what was written where. *)
type cell = { c_rank : int; c_vid : int; c_time : float; c_wait : float }

let prop_nprocs = 8

let cell_arb =
  let open Prop in
  let raw =
    pair (int_range 0 (prop_nprocs - 1))
      (pair (int_range 0 24) (pair (int_range 0 11) (float_range 0.001 5.0)))
  in
  map
    (fun (r, (vid, (shape, x))) ->
      let time =
        match shape with
        | 0 -> Float.nan  (* poisoned counter *)
        | 1 -> -.x  (* negative garbage *)
        | _ -> x
      in
      { c_rank = r; c_vid = vid; c_time = time; c_wait = x /. 2.0 })
    ~show:(fun c ->
      Printf.sprintf "r%d v%d t=%h w=%h" c.c_rank c.c_vid c.c_time c.c_wait)
    raw

let cells_arb = Prop.list_of ~max_len:48 cell_arb

(* The PSG handed to the hand-built profiles; the store never reads it
   for cell queries, so any graph works. *)
let prop_psg = lazy (fst (profile (chain_program ())))

let build_sparse cells =
  let data = Profdata.create ~nprocs:prop_nprocs in
  List.iter
    (fun c ->
      let row = Profdata.row_index data ~vertex:c.c_vid in
      Profdata.add_sampled data ~row ~rank:c.c_rank ~time:c.c_time ~samples:1;
      Profdata.add_wait data ~row ~rank:c.c_rank ~calls:1 c.c_wait)
    cells;
  (data, Ppg.build ~psg:(Lazy.force prop_psg) data)

let same_float a b = bits a = bits b

(* Expected cell values: accumulated sums per (rank, vid), as add_sampled
   and add_wait leave them. *)
let model cells =
  let m = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let t0, w0, n0 =
        match Hashtbl.find_opt m (c.c_rank, c.c_vid) with
        | Some x -> x
        | None -> (0.0, 0.0, 0)
      in
      Hashtbl.replace m (c.c_rank, c.c_vid)
        (t0 +. c.c_time, w0 +. c.c_wait, n0 + 1))
    cells;
  m

let prop_sparse_round_trip cells =
  let _, ppg = build_sparse cells in
  let m = model cells in
  (* present cells come back bit-for-bit (NaN and negatives included) *)
  Hashtbl.iter
    (fun (rank, vid) (t, w, _) ->
      if not (same_float t (Ppg.time_of ppg ~rank ~vertex:vid)) then
        failwith "present time mismatch";
      if not (same_float w (Ppg.wait_of ppg ~rank ~vertex:vid)) then
        failwith "present wait mismatch")
    m;
  (* absent cells are NaN-safe zeros, never garbage *)
  for vid = 0 to 24 do
    for rank = 0 to prop_nprocs - 1 do
      if not (Hashtbl.mem m (rank, vid)) then begin
        let t = Ppg.time_of ppg ~rank ~vertex:vid in
        let w = Ppg.wait_of ppg ~rank ~vertex:vid in
        if not (same_float t 0.0 && same_float w 0.0) then
          failwith "absent cell not a clean zero"
      end
    done;
    (* coverage counts exactly the present ranks and stays finite *)
    let present = ref 0 in
    for rank = 0 to prop_nprocs - 1 do
      if Hashtbl.mem m (rank, vid) then incr present
    done;
    let cov = Ppg.coverage ppg ~vertex:vid in
    if Float.is_nan cov then failwith "coverage NaN";
    if abs_float (cov -. (float_of_int !present /. float_of_int prop_nprocs))
       > 1e-12
    then failwith "coverage count wrong"
  done;
  true

let prop_row_gather_equals_cells cells =
  let _, ppg = build_sparse cells in
  List.for_all
    (fun vid ->
      let times = Ppg.times_across_ranks ppg ~vertex:vid in
      let waits = Ppg.waits_across_ranks ppg ~vertex:vid in
      Array.length times = prop_nprocs
      && Array.length waits = prop_nprocs
      && List.for_all
           (fun rank ->
             same_float times.(rank) (Ppg.time_of ppg ~rank ~vertex:vid)
             && same_float waits.(rank) (Ppg.wait_of ppg ~rank ~vertex:vid))
           (List.init prop_nprocs Fun.id))
    (Ppg.touched_vertices ppg)

(* Sanitize over column rows: idempotent, and physically the same array
   when the input is already clean. *)
let prop_sanitize_idempotent cells =
  let _, ppg = build_sparse cells in
  List.for_all
    (fun vid ->
      let row = Ppg.times_across_ranks ppg ~vertex:vid in
      let clean1, dropped1 = Scalana_detect.Aggregate.sanitize row in
      let clean2, dropped2 = Scalana_detect.Aggregate.sanitize clean1 in
      dropped2 = 0
      && clean2 == clean1
      && (dropped1 > 0 || clean1 == row)
      && Array.for_all (fun x -> not (Float.is_nan x || x < 0.0)) clean1)
    (Ppg.touched_vertices ppg)

let () =
  Alcotest.run "ppg"
    [
      ( "build",
        [
          Alcotest.test_case "comm edges" `Quick test_ppg_comm_edges;
          Alcotest.test_case "waiting edges" `Quick
            test_ppg_waiting_edges_filter;
          Alcotest.test_case "collective late rank" `Quick
            test_ppg_coll_late_rank;
          Alcotest.test_case "per-rank times" `Quick test_ppg_times;
        ] );
      ("crossscale", [ Alcotest.test_case "container" `Quick test_crossscale ]);
      ( "differential",
        [
          Alcotest.test_case "registry x scales x clean+faulted" `Quick
            test_differential_registry;
          Alcotest.test_case "cells: registry np 4/16" `Quick test_cells_registry;
          Alcotest.test_case "cells: cg-weak np=1024" `Quick test_cells_cg_weak;
          Alcotest.test_case "cells: poisoned NaN/negative" `Quick
            test_cells_poisoned;
          Alcotest.test_case "cells: killed rank" `Quick test_cells_killed;
          Alcotest.test_case "cells: elastic sessions" `Quick test_cells_elastic;
          Alcotest.test_case "replayed fold orders" `Quick test_fold_orders;
        ] );
      ( "columnar-props",
        [
          Prop.test ~count:60 "sparse coverage round-trips" cells_arb
            prop_sparse_round_trip;
          Prop.test ~count:60 "row gather equals cell reads" cells_arb
            prop_row_gather_equals_cells;
          Prop.test ~count:60 "sanitize idempotent over rows" cells_arb
            prop_sanitize_idempotent;
        ] );
    ]
