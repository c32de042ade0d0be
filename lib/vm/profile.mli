(** Execution profiling (paper step 1): weighted control graphs and the
    weighted call graph, accumulated over any number of runs. *)

open Ir

type func_profile = {
  block_counts : int array;
  arc_counts : (int, int) Hashtbl.t array;
      (** [arc_counts.(src)] maps [dst -> count] for intra-function arcs *)
}

type t = {
  prog : Prog.program;
  funcs : func_profile array;
  site_counts : (int * Cfg.label * int, int) Hashtbl.t;
      (** [(caller fid, block, callee fid) -> dynamic call count] *)
  entry_counts : int array;  (** per function: number of invocations *)
  contexts : Interp.context;
      (** the calling-context tree summed over the runs: the root is the
          entry function, entered once per run, and each call path is
          one node whose [calls] is that path's dynamic call count.
          Summing a call block's counts over every node that calls from
          it gives its [site_counts] entry. *)
  mutable runs : int;
  mutable dyn_insns : int;
  mutable dyn_blocks : int;
  mutable dyn_calls : int;
  mutable dyn_branches : int;
}
(** Keys enter [arc_counts] and [site_counts] in the order their arcs and
    call sites are first taken, run after run, so the tables'
    [Hashtbl.fold] order is a function of the execution alone. *)

val create : Prog.program -> t
(** An empty profile: no runs, every count zero, a bare context root. *)

val run : Prog.program -> Io.input list -> t * Interp.counts
(** Profile the program over all inputs: one VM pass, recorded as one
    [profile] span, whose runs count into one [Interp.counts].  Returns
    the profile and those counts (per-context transfers and their
    first-taken log), which the profile does not keep. *)

val of_counts : Interp.counts -> t
(** The profile counts stand for: block counts, arcs and call sites
    summed over each function's contexts and inserted in first-taken
    order, [runs] the root's entries, and the [dyn_*] totals charged
    per executed block ([Cfg.instr_count] instructions; a call or a
    branch by its terminator).  Counts built without a run (an inlined
    program's, say) yield that program's profile the same way. *)

val profile : Prog.program -> Io.input list -> t
(** [fst (run prog inputs)]. *)

val block_weight : t -> int -> Cfg.label -> int
val func_weight : t -> int -> int

val out_arcs : t -> int -> Cfg.label -> (Cfg.label * int) list
(** Outgoing intra-function arcs of a block with their counts. *)

val in_arcs : t -> int -> (Cfg.label * int) list array
(** Incoming intra-function arcs for every block of the function. *)
