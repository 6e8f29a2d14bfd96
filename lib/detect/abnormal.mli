(** Abnormal vertex detection (Section IV-A): at one job scale, flag
    vertices whose time on some ranks deviates from the median by more
    than [abnorm_thd] (paper default 1.3); vertices executed by a
    minority of ranks (median zero) are the load-imbalance shape. *)

type finding = {
  vertex : int;
  ranks : int list;  (** the deviating ranks *)
  max_time : float;
  median_time : float;
  ratio : float;  (** max / median; infinite when the median is zero *)
}

type config = { abnorm_thd : float; min_seconds : float }

val default_config : config

val detect_vertex :
  ?config:config -> Scalana_ppg.Ppg.t -> vertex:int -> finding option

val detect : ?config:config -> Scalana_ppg.Ppg.t -> finding list
