(* Shared fixtures and helpers for the test suites. *)

open Scalana_mlang

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let close ?(eps = 1e-6) msg expected actual =
  if abs_float (expected -. actual) > eps *. (1.0 +. abs_float expected) then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

(* A small ring program: one compute block and a bidirectional shift per
   iteration, then an allreduce. *)
let ring_program ?(niter = 10) ?(work = 100_000) () =
  let open Expr.Infix in
  let b = Builder.create ~file:"ring.mmp" ~name:"ring" () in
  Builder.param b "w" work;
  Builder.param b "niter" niter;
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
      ]);
  Builder.program b

(* Rank 0 computes a long loop before every barrier: the other ranks
   wait for it at the collective. *)
let delayed_barrier_program ?(work = 60_000_000) () =
  let open Expr.Infix in
  let b = Builder.create ~file:"db.mmp" ~name:"db" () in
  Builder.func b "main" (fun () ->
      [
        Builder.loop b ~label:"steps" ~var:"s" ~count:(i 5) (fun () ->
            [
              Builder.branch b
                ~cond:(rank = i 0)
                (fun () ->
                  [
                    Builder.comp b ~label:"slow_loop" ~flops:(i work)
                      ~mem:(i work / i 2) ();
                  ]);
              Builder.comp b ~label:"balanced" ~flops:(i 1_000_000)
                ~mem:(i 500_000) ();
              Builder.barrier b;
            ]);
      ]);
  Builder.program b

(* Rank 1 blocks in a receive while rank 0 computes before sending. *)
let late_sender_program () =
  let open Expr.Infix in
  let b = Builder.create ~file:"ls.mmp" ~name:"ls" () in
  Builder.func b "main" (fun () ->
      [
        Builder.branch b
          ~cond:(rank = i 0)
          ~else_:(fun () ->
            [ Builder.recv b ~src:(i 0) ~tag:(i 1) ~bytes:(i 64) () ])
          (fun () ->
            [
              Builder.comp b ~label:"late" ~flops:(i 50_000_000)
                ~mem:(i 20_000_000) ();
              Builder.send b ~dest:(i 1) ~tag:(i 1) ~bytes:(i 64) ();
            ]);
      ]);
  Builder.program b

(* Functions, a branch, nested loops, an MPI pair — the Fig. 3 example. *)
let fig3_program () =
  let open Expr.Infix in
  let b = Builder.create ~file:"fig3.mmp" ~name:"fig3" () in
  Builder.param b "n" 1000;
  Builder.func b "foo" (fun () ->
      [
        Builder.branch b
          ~cond:(rank % i 2 = i 0)
          ~else_:(fun () ->
            [ Builder.recv b ~src:(rank - i 1) ~tag:(i 7) ~bytes:(i 64) () ])
          (fun () ->
            [ Builder.send b ~dest:(rank + i 1) ~tag:(i 7) ~bytes:(i 64) () ]);
      ]);
  Builder.func b "main" (fun () ->
      [
        Builder.loop b ~label:"loop1" ~var:"i" ~count:(p "n" / i 100) (fun () ->
            [
              Builder.comp b ~label:"a_init" ~flops:(p "n") ~mem:(p "n") ();
              Builder.loop b ~label:"loop1_1" ~var:"j" ~count:(i 4) (fun () ->
                  [ Builder.comp b ~label:"sum" ~flops:(p "n") ~mem:(p "n") () ]);
              Builder.loop b ~label:"loop1_2" ~var:"k" ~count:(i 4) (fun () ->
                  [ Builder.comp b ~label:"prod" ~flops:(p "n") ~mem:(p "n") () ]);
              Builder.call b "foo";
              Builder.bcast b ~bytes:(i 8) ();
            ]);
      ]);
  Builder.program b

(* Recursive and indirect calls for call-graph / PSG tests. *)
let recursion_program () =
  let open Expr.Infix in
  let b = Builder.create ~file:"rec.mmp" ~name:"rec" () in
  Builder.func b "alpha" (fun () ->
      [ Builder.comp b ~label:"alpha_work" ~flops:(i 1000) ~mem:(i 100) () ]);
  Builder.func b "beta" (fun () ->
      [ Builder.comp b ~label:"beta_work" ~flops:(i 2000) ~mem:(i 200) () ]);
  Builder.func b "walk" ~params:[ "d" ] (fun () ->
      [
        Builder.comp b ~label:"walk_work" ~flops:(i 500) ~mem:(i 50) ();
        Builder.branch b
          ~cond:(v "d" > i 0)
          (fun () -> [ Builder.call b "walk" ~args:[ ("d", v "d" - i 1) ] ]);
      ]);
  Builder.func b "main" (fun () ->
      [
        Builder.call b "walk" ~args:[ ("d", i 3) ];
        Builder.icall b ~selector:(rank % i 2) [ "alpha"; "beta" ];
        Builder.barrier b;
      ]);
  Builder.program b

let run ?(nprocs = 4) ?inject ?cost ?tools program =
  let cfg =
    Scalana_runtime.Exec.config ~nprocs ?inject ?cost ?tools ()
  in
  Scalana_runtime.Exec.run ~cfg program

(* Run [program] with the Timeline recorder attached alone: it charges
   no overhead, so the timeline carries the unperturbed clocks. *)
let recorded_timeline ?config ?(nprocs = 4) ?cost program =
  let static = Scalana.Static.analyze program in
  let recorder =
    Scalana_profile.Timeline.create ?config ~index:static.index ~nprocs ()
  in
  let r =
    run ~nprocs ?cost ~tools:[ Scalana_profile.Timeline.tool recorder ] program
  in
  (static, Scalana_profile.Timeline.capture recorder, r)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* A stdlib-only property-testing mini-harness: seeded generator
   combinators plus a greedy shrink-on-fail loop.  It exists alongside
   qcheck deliberately — properties over the pipeline's own types often
   want generators seeded the same splitmix64 way the fault plans are,
   and a failure here reports the *shrunk* counterexample through
   Alcotest like any other assertion. *)
module Prop = struct
  (* splitmix64: the same generator family Faults uses; one [int64]
     state, deterministic per seed. *)
  type rng = { mutable state : int64 }

  let rng seed = { state = Int64.of_int seed }

  let next r =
    let open Int64 in
    r.state <- add r.state 0x9E3779B97F4A7C15L;
    let z = r.state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  (* Uniform-ish non-negative int below [bound]. *)
  let below r bound =
    if bound <= 1 then 0
    else
      Int64.to_int (Int64.rem (Int64.shift_right_logical (next r) 1)
                      (Int64.of_int bound))

  (* A generator draws from the rng; an arbitrary also knows how to
     shrink a failing value and how to print it. *)
  type 'a gen = rng -> 'a

  type 'a arb = {
    gen : 'a gen;
    shrink : 'a -> 'a list;  (* strictly "smaller" candidates, best first *)
    show : 'a -> string;
  }

  let int_range lo hi =
    {
      gen = (fun r -> lo + below r (hi - lo + 1));
      shrink =
        (fun x ->
          (* toward the low bound: the classic halving ladder *)
          if x = lo then []
          else
            List.sort_uniq compare [ lo; lo + ((x - lo) / 2); x - 1 ]
            |> List.filter (fun y -> y <> x));
      show = string_of_int;
    }

  let float_range lo hi =
    {
      gen =
        (fun r ->
          lo
          +. (hi -. lo)
             *. (float_of_int (below r 1_000_000) /. 1_000_000.0));
      shrink = (fun _ -> []);  (* floats: report as drawn *)
      show = (fun x -> Printf.sprintf "%.9g" x);
    }

  let oneof values =
    {
      gen = (fun r -> values.(below r (Array.length values)));
      shrink = (fun _ -> []);
      show = (fun _ -> "<choice>");
    }

  let pair a b =
    {
      gen = (fun r -> (a.gen r, b.gen r));
      shrink =
        (fun (x, y) ->
          List.map (fun x' -> (x', y)) (a.shrink x)
          @ List.map (fun y' -> (x, y')) (b.shrink y));
      show = (fun (x, y) -> Printf.sprintf "(%s, %s)" (a.show x) (b.show y));
    }

  (* Lists shrink by dropping halves, then dropping single elements, then
     shrinking one element — enough to cut most counterexamples down to
     one or two entries. *)
  let list_of ?(max_len = 16) elt =
    let rec drop_halves l =
      let n = List.length l in
      if n <= 1 then []
      else
        [ List.filteri (fun i _ -> i < n / 2) l;
          List.filteri (fun i _ -> i >= n / 2) l ]
        @ drop_singles l
    and drop_singles l =
      List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) l) l
    in
    {
      gen =
        (fun r ->
          let n = below r (max_len + 1) in
          List.init n (fun _ -> elt.gen r));
      shrink =
        (fun l ->
          drop_halves l
          @ List.concat
              (List.mapi
                 (fun i x ->
                   List.map
                     (fun x' ->
                       List.mapi (fun j y -> if j = i then x' else y) l)
                     (elt.shrink x))
                 l));
      show =
        (fun l -> "[" ^ String.concat "; " (List.map elt.show l) ^ "]");
    }

  let map f ~show g =
    { gen = (fun r -> f (g.gen r)); shrink = (fun _ -> []); show }

  (* Run [prop] on [count] draws; on failure, shrink greedily until no
     smaller candidate still fails, then report the minimal one.  A
     property fails by returning [false] or raising. *)
  let check ?(count = 100) ?(seed = 0x5ca1a) name arb prop =
    let holds x = try prop x with _ -> false in
    let r = rng seed in
    for i = 1 to count do
      let x = arb.gen r in
      if not (holds x) then begin
        let rec minimize x steps =
          if steps > 1000 then x
          else
            match List.find_opt (fun y -> not (holds y)) (arb.shrink x) with
            | Some y -> minimize y (steps + 1)
            | None -> x
        in
        let m = minimize x 0 in
        Alcotest.failf
          "property %S falsified on draw %d/%d (seed %d)\n  shrunk: %s" name i
          count seed (arb.show m)
      end
    done

  (* Alcotest wrapper, mirroring [qtest]. *)
  let test ?count ?seed name arb prop =
    Alcotest.test_case name `Quick (fun () -> check ?count ?seed name arb prop)
end

(* Per-rank PMU of the (unique) comp vertex carrying [label], measured by
   a profiled run — the view the paper's Fig. 15/16 plots show. *)
let per_vertex_pmu ?cost ?(nprocs = 8) ~label prog =
  let locals = Scalana_psg.Intra.build_all prog in
  let full = Scalana_psg.Inter.build ~locals prog in
  let contraction = Scalana_psg.Contract.run full in
  let index = Scalana_psg.Index.build ~full ~contraction in
  let profiler = Scalana_profile.Profiler.create ~index ~nprocs () in
  let cfg =
    Scalana_runtime.Exec.config ~nprocs ?cost
      ~tools:[ Scalana_profile.Profiler.tool profiler ] ()
  in
  ignore (Scalana_runtime.Exec.run ~cfg prog);
  let data = Scalana_profile.Profiler.data profiler in
  let vertex =
    List.find
      (fun v ->
        match v.Scalana_psg.Vertex.kind with
        | Scalana_psg.Vertex.Comp { label = Some l; _ } -> String.equal l label
        | _ -> false)
      (Scalana_psg.Psg.find_all
         (fun v -> Scalana_psg.Vertex.is_comp v)
         contraction.Scalana_psg.Contract.psg)
  in
  Array.init nprocs (fun rank ->
      match
        Scalana_profile.Profdata.pmu data ~rank
          ~vertex:vertex.Scalana_psg.Vertex.id
      with
      | Some pmu -> pmu
      | None -> Scalana_runtime.Pmu.zero)
