(** Structural validation of lowered programs: label ranges, callee
    resolution, register bounds, data-segment extents. *)

val diags : Prog.program -> Diag.t list
(** Every structural violation in the program, in discovery order, as
    [stage = Structure] diagnostics naming the offending function and
    block. *)

val program : Prog.program -> unit
(** Raises {!Diag.Fail} describing the first violation found. *)
