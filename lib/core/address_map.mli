(** Address assignment: block orders + function order -> concrete
    instruction-memory addresses, as consulted by the trace generator. *)

open Ir

type t = {
  block_addr : int array array;  (** [fid].(label) -> byte address *)
  block_words : int array array;  (** [fid].(label) -> instruction count *)
  total_bytes : int;
  effective_bytes : int;
      (** size of the packed effective (executed) region — the Table 5
          "effective static bytes" *)
}

val code_base : int

val build :
  Prog.program -> layouts:Func_layout.t array -> order:Global_layout.t -> t
(** Optimized placement: effective regions of all functions in global
    order first, then non-executed regions in the same order. *)

val natural : Prog.program -> t
(** Unoptimized baseline: definition order, original block order. *)
