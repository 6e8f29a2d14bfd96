(* Data-quality accounting for degraded-mode analysis.

   Production runs produce imperfect data — ranks die, artifact files get
   truncated, counters return garbage, scale points go missing.  The
   pipeline degrades instead of dying, and this record quantifies exactly
   what was lost so a degraded verdict is never mistaken for a clean one.
   A clean pipeline produces [clean] and the report stays byte-identical
   to a build without the resilience layer. *)

type artifact_issue = {
  ai_path : string;  (* file the damage was found in *)
  ai_kept : int;  (* intact records salvaged from it *)
  ai_detail : string;  (* what was wrong, human-readable *)
}

type run_issue = {
  ri_nprocs : int;
  ri_killed : int list;  (* ranks a fault terminated *)
  ri_stranded : int list;  (* ranks left blocked by a killed peer *)
  ri_attempts : int;  (* profiling attempts (retry-with-new-seed) *)
  ri_left : int list;  (* ranks that left an elastic session *)
  ri_joined : int list;  (* ranks that joined one *)
  ri_epochs : int;  (* membership epochs (0 = not elastic) *)
  ri_backoff : float;  (* total retry backoff the run waited out *)
}

type t = {
  artifact_issues : artifact_issue list;
  run_issues : run_issue list;  (* only degraded or retried runs *)
  dropped_scales : int list;  (* requested scales with no run at all *)
  quarantined_values : int;  (* poisoned per-rank values dropped *)
  insufficient_vertices : int;  (* vertices too damaged to rank *)
  rank_coverage : float;  (* min over runs of surviving/total ranks *)
}

let clean =
  {
    artifact_issues = [];
    run_issues = [];
    dropped_scales = [];
    quarantined_values = 0;
    insufficient_vertices = 0;
    rank_coverage = 1.0;
  }

let is_clean t =
  t.artifact_issues = [] && t.run_issues = [] && t.dropped_scales = []
  && t.quarantined_values = 0
  && t.insufficient_vertices = 0
  && t.rank_coverage >= 1.0
