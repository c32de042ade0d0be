(** Control-transfer classification against a trace selection — the
    Table 4 [neutral]/[undesirable]/[desirable] columns. *)

type counts = {
  mutable desirable : int;
      (** transfers to the block's successor within its trace *)
  mutable undesirable : int;
      (** transfers entering and/or exiting a trace mid-body *)
  mutable neutral : int;
      (** transfers from the end of a trace to the start of a trace *)
}

val fraction : int -> counts -> float

val run : Placement.Trace_select.t array -> Vm.Interp.result -> counts
(** Classify every dynamic intra-function control transfer of a
    finished run (such as {!Trace.result} of a recording) against the
    per-function trace selections of the program that ran. *)
