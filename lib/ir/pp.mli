(** Pretty printers for the lowered IR. *)

val program : Prog.program Fmt.t
