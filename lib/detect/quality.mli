(** Data-quality accounting for degraded-mode analysis: what was lost to
    dead ranks, damaged artifacts, poisoned metrics and missing scales.
    A clean pipeline yields {!clean} and reports stay byte-identical to
    the pre-resilience output. *)

type artifact_issue = {
  ai_path : string;  (** file the damage was found in *)
  ai_kept : int;  (** intact records salvaged from it *)
  ai_detail : string;  (** what was wrong, human-readable *)
}

type run_issue = {
  ri_nprocs : int;
  ri_killed : int list;  (** ranks a fault terminated *)
  ri_stranded : int list;  (** ranks left blocked by a killed peer *)
  ri_attempts : int;  (** profiling attempts (retry-with-new-seed) *)
  ri_left : int list;  (** ranks that left an elastic session *)
  ri_joined : int list;  (** ranks that joined one *)
  ri_epochs : int;  (** membership epochs (0 = not elastic) *)
  ri_backoff : float;  (** total retry backoff the run waited out, seconds *)
}

type t = {
  artifact_issues : artifact_issue list;
  run_issues : run_issue list;  (** only degraded or retried runs *)
  dropped_scales : int list;  (** requested scales with no run at all *)
  quarantined_values : int;  (** poisoned per-rank values dropped *)
  insufficient_vertices : int;  (** vertices too damaged to rank *)
  rank_coverage : float;  (** min over runs of surviving/total ranks *)
}

val clean : t
val is_clean : t -> bool
