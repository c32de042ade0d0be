(** Trace selection — the paper's appendix [Algorithm TraceSelection]
    with [MIN_PROB = 0.7].

    Traces are the units of instruction placement: blocks that tend to
    execute in sequence, grown from the heaviest unselected block forward
    through best successors and backward through best predecessors.  An
    arc qualifies only when its weight is at least [min_prob] of the
    weight of both endpoint blocks and the candidate block is unselected;
    the function entry never becomes a trace interior. *)

open Ir

val default_min_prob : float
(** 0.7, the paper's MIN_PROB. *)

type t = {
  trace_of : int array;  (** block label -> trace id *)
  traces : Cfg.label array array;
      (** trace id -> member blocks in control order (head first) *)
}

val select : ?min_prob:float -> Prog.func -> Weight.cfg_weights -> t
(** For a zero-weight function every block forms its own trace, as in the
    paper. *)

val head : Cfg.label array -> Cfg.label
val tail : Cfg.label array -> Cfg.label
val trace_weight : Weight.cfg_weights -> Cfg.label array -> int

val is_partition : t -> int -> bool
(** Sanity: the traces partition the function's [nblocks] blocks. *)
