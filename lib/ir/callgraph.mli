(** Static call graph over a lowered program. *)

type t = { callees : int list array  (** deduplicated, indexed by caller *) }

val build : Prog.program -> t

val in_cycle_with : t -> src:int -> dst:int -> bool
(** [true] when a call chain from [dst] leads back to [src]; inlining
    [dst] into [src] would then risk unbounded expansion. *)
