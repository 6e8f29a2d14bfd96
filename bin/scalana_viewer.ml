(* scalana-viewer: render the detection result with source snippets (the
   text rendering of the Fig. 9 GUI).  Exits 0 on success, 2 on a
   missing or corrupt session or one profiled at fewer than two
   scales. *)

open Cmdliner

let run session context html timeline timeline_np static_crosscheck =
  Cli_common.run_cli @@ fun () ->
  let s = Cli_common.load_session session in
  Cli_common.require_two_scales s;
  let config = { Scalana.Config.default with static_crosscheck } in
  let tl =
    if timeline then Some (Cli_common.session_timeline ~config ?np:timeline_np s)
    else None
  in
  let pipeline = Scalana.Pipeline.detect_session ~config ?timeline:tl s in
  (match html with
  | Some path ->
      Scalana.Htmlreport.write pipeline ~path;
      Printf.printf "HTML report written to %s\n" path
  | None ->
      if timeline then print_string (Scalana.Viewer.show_timeline pipeline)
      else
        print_string (Scalana.Viewer.show ~snippet_context:context pipeline));
  Cli_common.exit_ok

let context_arg =
  Arg.(
    value & opt int 2
    & info [ "context" ] ~docv:"N" ~doc:"Source snippet context lines.")

let html_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "html" ] ~docv:"FILE"
        ~doc:"Write a standalone HTML report instead of text output.")

let timeline_arg =
  Arg.(
    value & flag
    & info [ "timeline" ]
        ~doc:
          "Show the per-rank application timeline as ASCII rows ('=' \
           compute, 'M' MPI, 'w' wait) instead of the root-cause view; \
           with --html, the report gains the wait-state section.")

let cmd =
  Cmd.v
    (Cmd.info "scalana-viewer" ~exits:Cli_common.exits
       ~doc:"Root-cause source viewer")
    Term.(
      const run $ Cli_common.session_arg $ context_arg $ html_arg
      $ timeline_arg $ Cli_common.timeline_np_arg
      $ Cli_common.static_crosscheck_arg)

let () = exit (Cmd.eval' cmd)
