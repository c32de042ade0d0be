(** Natural-loop detection over the dominator tree: back edges, loop
    bodies, nesting depth, and a reducibility check.

    A retreating edge (target is a DFS ancestor of the source) is a
    {e back edge} only when its target dominates its source; a natural
    loop is the back edge's target plus every block that reaches the
    source without passing through the target.  A retreating edge that
    is not a back edge makes the function irreducible (a multiple-entry
    cycle, which the paper's trace selection handles only
    heuristically); it is reported rather than turned into a loop. *)

open Ir

type loop = {
  header : Cfg.label;
  body : Cfg.label list;  (** sorted; includes the header *)
  depth : int;  (** 1 = outermost *)
}

type t = {
  loops : loop array;  (** sorted by header label, outer before inner *)
  reducible : bool;
  dom : Dom.t;  (** the dominator tree the loops were found with *)
}

val of_func : Prog.func -> t
