(** Attribution index from dynamic (call path, location) pairs to
    contracted-PSG vertices, with fallbacks for recursive re-entries and
    unresolved indirect calls. *)

open Scalana_mlang

type t

val build : full:Psg.t -> contraction:Contract.result -> t

(** Index vertices added to the contracted graph by indirect-call
    refinement (subtree rooted at the spliced Root vertex). *)
val index_contracted_subtree : t -> int -> unit

(** [find t ~callpath ~loc] — contracted vertex owning [loc] under
    [callpath]; falls back frame-by-frame for recursion/indirect calls. *)
val find : t -> callpath:Loc.t list -> loc:Loc.t -> int option

(** Exact lookup, no fallback. *)
val exact : t -> callpath:Loc.t list -> loc:Loc.t -> int option

val size : t -> int

(** A memo of {!find} keyed by the simulator's site ids
    ([Instrument.ctx.site]), [None] results included.  Site ids are only
    meaningful within one simulated run, and the index itself changes
    between runs ({!index_contracted_subtree}), so a memo must not
    outlive the run it was created for. *)
type memo

val memo : t -> memo

(** [find_site m ~site ~callpath ~loc] equals [find] on the memo's index
    for the [(callpath, loc)] pair that [site] names in this run. *)
val find_site : memo -> site:int -> callpath:Loc.t list -> loc:Loc.t -> int option
