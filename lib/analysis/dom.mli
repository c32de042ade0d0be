(** Dominator trees, via the Cooper–Harvey–Kennedy iterative algorithm
    over reverse-postorder numbering.

    A tree is rooted at the function entry with [idom.(root) = root];
    nodes the root cannot reach (the statically unreachable blocks)
    carry [idom = -1]. *)

open Ir

type t = {
  root : int;
  idom : int array;
      (** immediate dominator per node; [idom.(root) = root]; [-1] when
          the node is disconnected from the root *)
  rpo : int array;
      (** reverse-postorder number per node, [-1] when disconnected *)
}

val dominators : Prog.func -> t
(** Tree over the function's blocks, rooted at the entry (label 0). *)

val dominates : t -> int -> int -> bool
(** [dominates t a b]: [a] dominates [b], reflexively.  False
    whenever [b] is disconnected from the root. *)
