(* The boxed profiler, kept as the differential-test oracle.

   This is the hash-table profile store lib/profile carried before the
   profiler wrote straight into columns: one boxed performance vector per
   (rank, vertex) in per-rank tables, communication records keyed by
   boxed tuples, and the tool that filled them.  [run] and [run_elastic]
   drive it the way Scalana.Prof drives the production profiler (same
   simulator config, fault arming, poison and icall refinement), so each
   side of a differential test profiles its own run of the same
   deterministic config.  Ppg_reference builds from this store.  Do not
   "improve" this module: its value is that it does not change. *)

open Scalana_psg
open Scalana_runtime

module Perfvec = struct
  type t = {
    mutable time : float;  (* estimated seconds attributed by sampling *)
    mutable samples : int;
    mutable pmu : Pmu.t;
    mutable wait : float;  (* exact accumulated wait seconds *)
    mutable calls : int;  (* MPI invocations at this vertex *)
  }

  let create () =
    { time = 0.0; samples = 0; pmu = Pmu.zero; wait = 0.0; calls = 0 }

  let add_sampled v ~time ~samples ~pmu =
    v.time <- v.time +. time;
    v.samples <- v.samples + samples;
    v.pmu <- Pmu.add v.pmu pmu

  let add_wait v ~wait =
    v.wait <- v.wait +. wait;
    v.calls <- v.calls + 1

  (* Serialized size model: vertex id + 5 floats + 2 ints, packed. *)
  let bytes_per_vector = 24

  type per_rank = (int, t) Hashtbl.t

  let rank_table () : per_rank = Hashtbl.create 64

  let find_or_add (tbl : per_rank) vid =
    match Hashtbl.find_opt tbl vid with
    | Some v -> v
    | None ->
        let v = create () in
        Hashtbl.add tbl vid v;
        v

  let merge_into ~(dst : t) (src : t) =
    dst.time <- dst.time +. src.time;
    dst.samples <- dst.samples + src.samples;
    dst.pmu <- Pmu.add dst.pmu src.pmu;
    dst.wait <- dst.wait +. src.wait;
    dst.calls <- dst.calls + src.calls
end

module Commrec = struct
  type p2p_key = {
    recv_rank : int;
    recv_vertex : int;
    send_rank : int;
    send_vertex : int;
    tag : int;
    bytes : int;
  }

  type p2p_edge = {
    key : p2p_key;
    mutable has_wait : bool;  (* sticky: some instance waited *)
    mutable hits : int;
    mutable max_wait : float;
  }

  type coll_rec = {
    coll_vertex : int;
    mutable instances : int;
    last_arrivals : (int, int) Hashtbl.t;  (* rank -> #times it arrived last *)
  }

  type t = {
    p2p : (p2p_key, p2p_edge) Hashtbl.t;
    colls : (int, coll_rec) Hashtbl.t;
    mutable raw_records : int;  (* before compression, for the ablation *)
  }

  let create () =
    { p2p = Hashtbl.create 256; colls = Hashtbl.create 32; raw_records = 0 }

  let record_p2p t ~key ~waited ~wait_seconds =
    t.raw_records <- t.raw_records + 1;
    match Hashtbl.find_opt t.p2p key with
    | Some e ->
        e.hits <- e.hits + 1;
        e.has_wait <- e.has_wait || waited;
        e.max_wait <- Float.max e.max_wait wait_seconds
    | None ->
        Hashtbl.add t.p2p key
          { key; has_wait = waited; hits = 1; max_wait = wait_seconds }

  let record_coll t ~vertex ~last_arrival_rank =
    t.raw_records <- t.raw_records + 1;
    let r =
      match Hashtbl.find_opt t.colls vertex with
      | Some r -> r
      | None ->
          let r =
            { coll_vertex = vertex; instances = 0; last_arrivals = Hashtbl.create 8 }
          in
          Hashtbl.add t.colls vertex r;
          r
    in
    r.instances <- r.instances + 1;
    let n =
      try Hashtbl.find r.last_arrivals last_arrival_rank with Not_found -> 0
    in
    Hashtbl.replace r.last_arrivals last_arrival_rank (n + 1)

  let p2p_edges t = Hashtbl.fold (fun _ e acc -> e :: acc) t.p2p []
  let coll_records t = Hashtbl.fold (fun _ r acc -> r :: acc) t.colls []

  (* The rank that most often arrived last at this collective vertex. *)
  let dominant_late_rank (r : coll_rec) =
    Hashtbl.fold
      (fun rank n (best_rank, best_n) ->
        if n > best_n then (rank, n) else (best_rank, best_n))
      r.last_arrivals (-1, 0)
    |> fst

  let n_p2p t = Hashtbl.length t.p2p
  let n_coll t = Hashtbl.length t.colls

  (* Merge [src] into [into] with ranks renumbered through [map] — an
     elastic epoch's records, local ranks mapped to global ids.  Sources
     are drained in sorted order so the destination's insertion order (and
     hence every later fold over it) is a function of content alone. *)
  let merge_renumbered ~into ~map src =
    Hashtbl.fold (fun _ e acc -> e :: acc) src.p2p []
    |> List.sort (fun a b -> compare a.key b.key)
    |> List.iter (fun e ->
           let key =
             {
               e.key with
               recv_rank = map e.key.recv_rank;
               send_rank = map e.key.send_rank;
             }
           in
           match Hashtbl.find_opt into.p2p key with
           | Some d ->
               d.hits <- d.hits + e.hits;
               d.has_wait <- d.has_wait || e.has_wait;
               d.max_wait <- Float.max d.max_wait e.max_wait
           | None ->
               Hashtbl.add into.p2p key
                 { key; has_wait = e.has_wait; hits = e.hits; max_wait = e.max_wait });
    Hashtbl.fold (fun _ r acc -> r :: acc) src.colls []
    |> List.sort (fun a b -> compare a.coll_vertex b.coll_vertex)
    |> List.iter (fun r ->
           let dst =
             match Hashtbl.find_opt into.colls r.coll_vertex with
             | Some d -> d
             | None ->
                 let d =
                   {
                     coll_vertex = r.coll_vertex;
                     instances = 0;
                     last_arrivals = Hashtbl.create 8;
                   }
                 in
                 Hashtbl.add into.colls r.coll_vertex d;
                 d
           in
           dst.instances <- dst.instances + r.instances;
           Hashtbl.fold (fun rank n acc -> (rank, n) :: acc) r.last_arrivals []
           |> List.sort compare
           |> List.iter (fun (rank, n) ->
                  let g = map rank in
                  let cur =
                    try Hashtbl.find dst.last_arrivals g with Not_found -> 0
                  in
                  Hashtbl.replace dst.last_arrivals g (cur + n)));
    into.raw_records <- into.raw_records + src.raw_records

  (* Size model: a packed p2p record is 6 ints + flags = 28 B; a collective
     record is vertex + count + histogram entries of 8 B. *)
  let storage_bytes t =
    (28 * n_p2p t)
    + Hashtbl.fold
        (fun _ r acc -> acc + 12 + (8 * Hashtbl.length r.last_arrivals))
        t.colls 0

  let uncompressed_bytes t = 28 * t.raw_records
end

module Profdata = struct
  type icall_resolution = { callsite_vertex : int; target : string }

  type t = {
    nprocs : int;
    vectors : Perfvec.per_rank array;  (* indexed by rank *)
    comm : Commrec.t;
    icalls : (icall_resolution, unit) Hashtbl.t;
    mutable total_samples : int;
    mutable unattributed_samples : int;
    mutable elapsed : float;
    mutable mpi_calls_seen : int;
    mutable records_taken : int;
    mutable effective_nprocs : float;
        (* time-weighted mean membership; = float nprocs unless elastic *)
  }

  let create ~nprocs =
    {
      nprocs;
      vectors = Array.init nprocs (fun _ -> Perfvec.rank_table ());
      comm = Commrec.create ();
      icalls = Hashtbl.create 8;
      total_samples = 0;
      unattributed_samples = 0;
      elapsed = 0.0;
      mpi_calls_seen = 0;
      records_taken = 0;
      effective_nprocs = float_of_int nprocs;
    }

  let vector t ~rank ~vertex = Perfvec.find_or_add t.vectors.(rank) vertex
  let vector_opt t ~rank ~vertex = Hashtbl.find_opt t.vectors.(rank) vertex

  let record_icall t ~callsite_vertex ~target =
    Hashtbl.replace t.icalls { callsite_vertex; target } ()

  let icall_resolutions t =
    Hashtbl.fold (fun r () acc -> r :: acc) t.icalls []

  (* All vertices that received any data on any rank. *)
  let touched_vertices t =
    let seen = Hashtbl.create 64 in
    Array.iter
      (fun tbl -> Hashtbl.iter (fun vid _ -> Hashtbl.replace seen vid ()) tbl)
      t.vectors;
    Hashtbl.fold (fun vid () acc -> vid :: acc) seen [] |> List.sort compare

  (* Visit every recorded (rank, vertex, vector) cell.  Ranks ascend;
     within a rank the table's iteration order is unspecified, so callers
     must not depend on vertex order (the columnar PPG ingest writes each
     cell exactly once, which is order-insensitive). *)
  let iter_cells t f =
    Array.iteri
      (fun rank tbl -> Hashtbl.iter (fun vid v -> f ~rank ~vertex:vid v) tbl)
      t.vectors

  (* Values of one vertex across ranks (missing ranks yield None). *)
  let across_ranks t ~vertex =
    Array.map (fun tbl -> Hashtbl.find_opt tbl vertex) t.vectors

  (* Fraction of ranks that reported a vector at [vertex] — the per-vertex
     coverage used by degraded-mode detection (1.0 = every rank reported). *)
  let coverage t ~vertex =
    let n =
      Array.fold_left
        (fun acc tbl -> if Hashtbl.mem tbl vertex then acc + 1 else acc)
        0 t.vectors
    in
    if t.nprocs = 0 then 0.0 else float_of_int n /. float_of_int t.nprocs

  (* Fold one elastic epoch's profile (local ranks [0, src.nprocs)) into
     the session-wide artifact, renumbering ranks through [map] — local
     rank [l] of the epoch is global rank [map l].  Per-rank tables and
     icalls are drained in sorted order so the destination layout depends
     on content alone. *)
  let merge_renumbered ~into ~map (src : t) =
    Array.iteri
      (fun lrank tbl ->
        let dst_tbl = into.vectors.(map lrank) in
        Hashtbl.fold (fun vid v acc -> (vid, v) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.iter (fun (vid, v) ->
               Perfvec.merge_into ~dst:(Perfvec.find_or_add dst_tbl vid) v))
      src.vectors;
    Commrec.merge_renumbered ~into:into.comm ~map src.comm;
    Hashtbl.fold (fun r () acc -> r :: acc) src.icalls []
    |> List.sort compare
    |> List.iter (fun r -> Hashtbl.replace into.icalls r ());
    into.total_samples <- into.total_samples + src.total_samples;
    into.unattributed_samples <- into.unattributed_samples + src.unattributed_samples;
    into.elapsed <- Float.max into.elapsed src.elapsed;
    into.mpi_calls_seen <- into.mpi_calls_seen + src.mpi_calls_seen;
    into.records_taken <- into.records_taken + src.records_taken

  let storage_bytes t =
    let vec_bytes =
      Array.fold_left
        (fun acc tbl -> acc + (Perfvec.bytes_per_vector * Hashtbl.length tbl))
        0 t.vectors
    in
    vec_bytes + Commrec.storage_bytes t.comm + (8 * Hashtbl.length t.icalls)
end

module Profiler = struct
  type config = {
    freq : float;  (* sampling frequency, Hz (paper: 200) *)
    per_sample_cost : float;  (* seconds per interrupt + unwind *)
    record_prob : float;  (* random-sampling instrumentation threshold *)
    per_record_cost : float;  (* seconds to append one comm record *)
    per_call_cost : float;  (* seconds of fixed wrapper cost per MPI call *)
    wait_epsilon : float;  (* a wait above this marks the edge as waiting *)
    seed : int;
  }

  let default_config =
    {
      freq = 200.0;
      per_sample_cost = 150.0e-6;
      record_prob = 0.5;
      per_record_cost = 5.0e-6;
      per_call_cost = 0.5e-6;
      wait_epsilon = 20.0e-6;
      seed = 42;
    }

  type t = {
    cfg : config;
    sites : Index.memo;  (* this run's site -> vertex resolutions *)
    data : Profdata.t;
    next_tick : float array;  (* per rank *)
    rngs : Random.State.t array;  (* per rank, deterministic *)
  }

  let create ?(config = default_config) ~index ~nprocs () =
    {
      cfg = config;
      sites = Index.memo index;
      data = Profdata.create ~nprocs;
      next_tick = Array.make nprocs (1.0 /. config.freq);
      rngs =
        Array.init nprocs (fun r ->
            Random.State.make [| config.seed; r; 0x5ca1 |]);
    }

  let data t = t.data

  (* Count sampling ticks inside [start, stop) for [rank]; ticks skipped by
     clock jumps (tool overhead) are dropped, as a real timer would. *)
  let ticks t ~rank ~start ~stop =
    let period = 1.0 /. t.cfg.freq in
    if t.next_tick.(rank) < start then t.next_tick.(rank) <- start;
    let n = ref 0 in
    while t.next_tick.(rank) < stop do
      incr n;
      t.next_tick.(rank) <- t.next_tick.(rank) +. period
    done;
    !n

  let resolve t (ctx : Instrument.ctx) =
    Index.find_site t.sites ~site:ctx.site ~callpath:ctx.callpath ~loc:ctx.loc

  let on_interval t (ctx : Instrument.ctx) ~stop activity =
    let n = ticks t ~rank:ctx.rank ~start:ctx.time ~stop in
    if n = 0 then 0.0
    else begin
      let period = 1.0 /. t.cfg.freq in
      let est_time = float_of_int n *. period in
      t.data.total_samples <- t.data.total_samples + n;
      (match resolve t ctx with
      | None -> t.data.unattributed_samples <- t.data.unattributed_samples + n
      | Some vid ->
          let v = Profdata.vector t.data ~rank:ctx.rank ~vertex:vid in
          let duration = stop -. ctx.time in
          (* attribute counter deltas at the sampling rate: pmu-rate of the
             span times the sampled time — unbiased like PAPI's interrupt
             deltas, regardless of span length *)
          let pmu =
            match activity with
            | Instrument.Compute { pmu; _ } when duration > 0.0 ->
                Pmu.scale (est_time /. duration) pmu
            | Instrument.Compute { pmu; _ } -> pmu
            | Instrument.Mpi_span _ -> Pmu.zero
          in
          Perfvec.add_sampled v ~time:est_time ~samples:n ~pmu);
      (* Samples landing inside an MPI wait overlap the blocked time: the
         interrupt handler runs while the process would be idle, so it does
         not extend the critical path.  Only compute-span samples perturb
         the run (charging them on waits compounds exponentially along
         pipeline dependence chains). *)
      match activity with
      | Instrument.Compute _ -> float_of_int n *. t.cfg.per_sample_cost
      | Instrument.Mpi_span _ -> 0.0
    end

  let on_mpi_exit t (ctx : Instrument.ctx) (info : Instrument.mpi_exit) =
    t.data.mpi_calls_seen <- t.data.mpi_calls_seen + 1;
    let overhead = ref t.cfg.per_call_cost in
    (match resolve t ctx with
    | None -> ()
    | Some vid -> (
        let v = Profdata.vector t.data ~rank:ctx.rank ~vertex:vid in
        Perfvec.add_wait v ~wait:info.wait_seconds;
        (* random-sampling instrumentation: record parameters only when the
           draw falls below the threshold (Section III-B2) *)
        let record =
          Random.State.float t.rngs.(ctx.rank) 1.0 < t.cfg.record_prob
        in
        if record then
          match info.collective with
          | Some c ->
              t.data.records_taken <- t.data.records_taken + 1;
              overhead := !overhead +. t.cfg.per_record_cost;
              Commrec.record_coll t.data.comm ~vertex:vid
                ~last_arrival_rank:c.last_arrival_rank
          | None ->
              List.iter
                (fun (d : Instrument.peer_dep) ->
                  match
                    Index.find_site t.sites ~site:d.peer_site
                      ~callpath:d.peer_callpath ~loc:d.peer_loc
                  with
                  | None -> ()
                  | Some send_vid ->
                      t.data.records_taken <- t.data.records_taken + 1;
                      overhead := !overhead +. t.cfg.per_record_cost;
                      let key =
                        {
                          Commrec.recv_rank = ctx.rank;
                          recv_vertex = vid;
                          send_rank = d.peer_rank;
                          send_vertex = send_vid;
                          tag = d.dep_tag;
                          bytes = d.dep_bytes;
                        }
                      in
                      Commrec.record_p2p t.data.comm ~key
                        ~waited:(info.wait_seconds > t.cfg.wait_epsilon)
                        ~wait_seconds:info.wait_seconds)
                info.deps));
    !overhead

  let on_icall t (ctx : Instrument.ctx) ~target =
    (match resolve t ctx with
    | Some vid -> Profdata.record_icall t.data ~callsite_vertex:vid ~target
    | None -> ());
    t.cfg.per_call_cost

  let tool t =
    {
      (Instrument.nil "scalana") with
      on_interval = (fun ctx ~stop act -> on_interval t ctx ~stop act);
      on_mpi_exit = (fun ctx info -> on_mpi_exit t ctx info);
      on_icall = (fun ctx ~target -> on_icall t ctx ~target);
      on_run_end =
        (fun ~nprocs:_ ~elapsed -> t.data.elapsed <- elapsed);
    }
end

(* --- drivers mirroring Scalana.Prof --- *)

let profiler_config (c : Scalana.Config.t) =
  {
    Profiler.default_config with
    freq = c.Scalana.Config.sampling_freq;
    record_prob = c.Scalana.Config.record_prob;
  }

let apply_refinements (static : Scalana.Static.t) (data : Profdata.t) =
  List.iter
    (fun (res : Profdata.icall_resolution) ->
      match Psg.vertex_opt (Scalana.Static.psg static) res.callsite_vertex with
      | Some { Vertex.kind = Vertex.Callsite { callee = None; _ }; _ } -> (
          match
            Inter.refine_indirect (Scalana.Static.psg static)
              ~locals:static.Scalana.Static.locals
              ~callsite:res.callsite_vertex ~target:res.target
          with
          | Some sub_root ->
              Index.index_contracted_subtree static.Scalana.Static.index sub_root
          | None -> ())
      | Some _ | None -> ())
    (Profdata.icall_resolutions data)

let apply_poison armed (data : Profdata.t) =
  if not (Faults.is_none armed) then
    Array.iteri
      (fun rank per_rank ->
        Hashtbl.iter
          (fun vertex (vec : Perfvec.t) ->
            match Faults.poison armed ~rank ~vertex with
            | Some `Nan -> vec.Perfvec.time <- Float.nan
            | Some `Negative ->
                vec.Perfvec.time <- -.Float.abs vec.Perfvec.time -. 1e-9
            | None -> ())
          per_rank)
      data.Profdata.vectors

(* [Scalana.Prof.run] (first attempt, no baseline) with the boxed tool. *)
let run ?(config = Scalana.Config.default) ?(cost = Costmodel.default)
    ?(faults = Faults.empty) (static : Scalana.Static.t) ~nprocs =
  let armed = Faults.arm faults ~nprocs ~attempt:1 in
  let profiler =
    Profiler.create ~config:(profiler_config config)
      ~index:static.Scalana.Static.index ~nprocs ()
  in
  let cfg =
    Exec.config ~nprocs ~cost ~faults:armed ~tools:[ Profiler.tool profiler ] ()
  in
  ignore (Exec.run ~cfg static.Scalana.Static.program);
  let data = Profiler.data profiler in
  apply_poison armed data;
  apply_refinements static data;
  data

(* [Scalana.Prof.run_elastic] with the boxed tool: the same epochs,
   recovery clock and per-epoch refinement, merged per global rank. *)
let run_elastic ?(config = Scalana.Config.default) ?(cost = Costmodel.default)
    ~(plan : Elastic.plan) (static : Scalana.Static.t) ~nprocs =
  let epochs, n_ranks = Elastic.membership plan ~nprocs in
  let gdata = Profdata.create ~nprocs:n_ranks in
  let gfinish = Array.make n_ranks 0.0 in
  let prev_members = ref [||] and clock = ref 0.0 and infos = ref [] in
  List.iter
    (fun (e : Elastic.epoch) ->
      if e.e_left <> [] || e.e_joined <> [] then begin
        let finish =
          Array.to_list !prev_members |> List.map (fun g -> (g, gfinish.(g)))
        in
        let r =
          Elastic.recover plan ~cost ~net:Network.default ~nprocs
            ~iter:e.e_lo ~left:e.e_left ~joined:e.e_joined
            ~members:e.e_members ~finish
        in
        List.iter (fun (g, _) -> gfinish.(g) <- r.Elastic.r_end) r.r_stalls;
        clock := r.r_end
      end;
      let enp = Array.length e.e_members in
      let profiler =
        Profiler.create ~config:(profiler_config config)
          ~index:static.Scalana.Static.index ~nprocs:enp ()
      in
      let ecost =
        {
          cost with
          Costmodel.core_speed = (fun lr -> cost.Costmodel.core_speed e.e_members.(lr));
        }
      in
      let params = [ (plan.lo_param, e.e_lo); (plan.hi_param, e.e_hi) ] in
      let cfg =
        Exec.config ~nprocs:enp ~params ~cost:ecost
          ~tools:[ Profiler.tool profiler ] ~clock0:!clock ()
      in
      let result = Exec.run ~cfg static.Scalana.Static.program in
      let edata = Profiler.data profiler in
      apply_refinements static edata;
      Profdata.merge_renumbered ~into:gdata ~map:(fun lr -> e.e_members.(lr)) edata;
      Array.iteri (fun lr g -> gfinish.(g) <- result.Exec.rank_finish.(lr)) e.e_members;
      infos :=
        {
          Elastic.ei_nprocs = enp;
          ei_lo = e.e_lo;
          ei_hi = e.e_hi;
          ei_members = e.e_members;
          ei_t0 = !clock;
          ei_t1 = result.Exec.elapsed;
        }
        :: !infos;
      clock := result.Exec.elapsed;
      prev_members := e.e_members)
    epochs;
  gdata.Profdata.effective_nprocs <- Elastic.effective_nprocs (List.rev !infos);
  gdata.Profdata.elapsed <-
    Float.max gdata.Profdata.elapsed (Array.fold_left Float.max 0.0 gfinish);
  gdata
