(** Natural-loop detection over the dominator tree: back edges, loop
    bodies, nesting depth, and a reducibility check.

    A retreating edge (target is a DFS ancestor of the source) is a
    {e back edge} only when its target dominates its source; a natural
    loop is the back edge's target plus every block that reaches the
    source without passing through the target.  Retreating edges that
    are not back edges witness irreducible control flow (the multiple-
    entry cycles the paper's trace selection handles only heuristically),
    and are reported rather than turned into loops. *)

open Ir

type loop = {
  header : Cfg.label;
  body : Cfg.label list;  (** sorted; includes the header *)
  latches : Cfg.label list;  (** sources of the back edges, sorted *)
  depth : int;  (** 1 = outermost *)
  parent : int option;  (** index of the innermost enclosing loop *)
}

type t = {
  loops : loop array;  (** sorted by header label, outer before inner *)
  depth_of : int array;  (** per block; 0 = not in any loop *)
  loop_of : int array;  (** innermost loop index per block, -1 = none *)
  reducible : bool;
  irreducible_edges : (Cfg.label * Cfg.label) list;
      (** retreating edges whose target does not dominate their source *)
  dom : Dom.t;  (** the dominator tree the loops were found with *)
}

val of_func : Prog.func -> t
