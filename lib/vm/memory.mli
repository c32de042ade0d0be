(** Flat byte-addressable data memory with growth on demand.

    Addresses below {!Ir.Lower.globals_base} are unmapped; touching them
    raises {!Fault} (null-pointer-style protection). *)

exception Fault of string

type t

val of_program : Ir.Prog.program -> t
(** Memory pre-loaded with the program's static data segment. *)

val read8 : t -> int -> int
val write8 : t -> int -> int -> unit
val read32 : t -> int -> int
val write32 : t -> int -> int -> unit
