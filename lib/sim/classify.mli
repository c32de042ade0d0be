(** Control-transfer classification against a trace selection — the
    Table 4 [neutral]/[undesirable]/[desirable] columns. *)

open Ir

type counts = {
  mutable desirable : int;
      (** transfers to the block's successor within its trace *)
  mutable undesirable : int;
      (** transfers entering and/or exiting a trace mid-body *)
  mutable neutral : int;
      (** transfers from the end of a trace to the start of a trace *)
}

val fraction : int -> counts -> float

val run :
  Prog.program ->
  Placement.Trace_select.t array ->
  Vm.Io.input ->
  counts
(** Execute the program on the input, classifying every dynamic
    intra-function control transfer. *)
