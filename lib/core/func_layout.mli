(** Function body layout — the paper's appendix
    [Algorithm FunctionBodyLayout] plus step 4's rule that never-executed
    traces move to the bottom of the function.

    The result splits the function into an {e effective} region (the
    placed nonzero-weight traces, a prefix of [order]) and a non-executed
    region; the global layout packs effective regions of different
    functions together. *)

open Ir

type t = {
  order : Cfg.label array;  (** all blocks, in layout order *)
  active_blocks : int;  (** prefix of [order] forming the effective region *)
  active_bytes : int;
  total_bytes : int;
}

val make : Prog.func -> active:Cfg.label list -> dead:Cfg.label list -> t
(** The one constructor of a body layout: [active] labels, in order, form
    the effective region and [dead] ones follow it.  Counts the dead
    blocks in {!dead_blocks_sunk}. *)

val layout : Prog.func -> Weight.cfg_weights -> Trace_select.t -> t

val layout_unexecuted : Prog.func -> t
(** Original order, empty effective region. *)

val natural : Prog.func -> t
(** Unoptimized baseline: original block order, everything active. *)

val is_permutation : t -> int -> bool
(** Sanity: [order] is a permutation of the function's blocks. *)

val dead_blocks_sunk : Obs.Metrics.counter
(** Telemetry: blocks placed outside the packed effective region; shared
    by every layout algorithm that sinks dead code. *)

val chains_merged : Obs.Metrics.counter
(** Telemetry: block-chain merges, shared by {!Ph_layout} and {!Exttsp}. *)
