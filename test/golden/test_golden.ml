(* Golden-report regression harness.

   [test_golden.exe NAME] runs the full pipeline for registry program
   NAME at fixed seeds and scales and prints the text report; the dune
   rules in this directory diff that output against the checked-in
   snapshot [NAME.expected].  A legitimate report change is promoted
   with

     dune runtest --auto-promote

   which rewrites the snapshots in place.  Everything the report depends
   on is deterministic — simulated clocks, the default config seed, and
   fixed job scales — so any diff is a real behaviour change, not noise.
   In particular these snapshots pin down that the observability layer
   (lib/obs) leaves every report byte-identical while tracing is
   disabled, which is the default. *)

let max_np = 16

let pipeline ?(timeline = false) ?(crosscheck = false) ?(elastic = false) name
    =
  let entry = Scalana_apps.Registry.find name in
  let scales = Scalana_apps.Registry.scales entry ~min_np:4 ~max_np in
  let config = { Scalana.Config.default with static_crosscheck = crosscheck } in
  let plan = if elastic then entry.elastic_plan else None in
  Scalana.Pipeline.run ~config ~cost:entry.cost ~scales ~timeline ?elastic:plan
    (entry.make ())

let report ?timeline ?crosscheck ?elastic name =
  (pipeline ?timeline ?crosscheck ?elastic name).Scalana.Pipeline.report

(* The HTML meta line embeds the wall-clock detection cost — the one
   nondeterministic byte sequence in an otherwise simulated-clock
   rendering.  Pin it so the HTML snapshot diffs like the text ones. *)
let normalize_detect_cost html =
  let marker = "detection cost " in
  let n = String.length html and m = String.length marker in
  let rec find i =
    if i + m > n then None
    else if String.sub html i m = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> html
  | Some i ->
      let j = ref (i + m) in
      while !j < n && html.[!j] <> 's' do incr j done;
      String.sub html 0 (i + m) ^ "0.000" ^ String.sub html !j (n - !j)

let html p = print_string (normalize_detect_cost (Scalana.Htmlreport.render p))

let () =
  match Sys.argv with
  | [| _; name |] -> print_string (report name)
  | [| _; name; "--wait-states" |] ->
      print_string (report ~timeline:true name)
  | [| _; name; "--static-crosscheck" |] ->
      print_string (report ~crosscheck:true name)
  | [| _; name; "--elastic" |] -> print_string (report ~elastic:true name)
  | [| _; name; "--html" |] -> html (pipeline name)
  | [| _; name; "--wait-states-html" |] -> html (pipeline ~timeline:true name)
  | [| _; name; "--crosscheck-html" |] -> html (pipeline ~crosscheck:true name)
  | [| _; name; "--elastic-html" |] -> html (pipeline ~elastic:true name)
  | _ ->
      prerr_endline
        "usage: test_golden.exe PROGRAM [--wait-states | --static-crosscheck \
         | --elastic | --html | --wait-states-html | --crosscheck-html \
         | --elastic-html]";
      exit 2
