(** Static call graph over a lowered program. *)

type site = { caller : int; block : Cfg.label; callee : int }
(** One call site: caller function index, block label of the call, callee
    function index. *)

type t = {
  sites : site list;
  callees : int list array;  (** deduplicated, indexed by caller *)
  callers : int list array;  (** deduplicated, indexed by callee *)
}

val build : Prog.program -> t

val in_cycle_with : t -> src:int -> dst:int -> bool
(** [true] when a call chain from [dst] leads back to [src]; inlining
    [dst] into [src] would then risk unbounded expansion. *)
