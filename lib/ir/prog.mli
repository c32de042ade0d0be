(** Whole programs: functions plus a static data segment. *)

type func = {
  name : string;
  nparams : int;  (** parameters live in registers [0 .. nparams-1] *)
  nregs : int;  (** number of virtual registers used by the function *)
  blocks : Cfg.block array;  (** entry block is index 0 *)
}

type program = {
  funcs : func array;
  entry : int;  (** index of the entry function *)
  data : (int * Bytes.t) list;  (** initialized data-segment images *)
  heap_base : int;  (** first address past the globals, for [Alloc] *)
  by_name : (string, int) Hashtbl.t;
}

exception Unknown_function of string

val make :
  ?data:(int * Bytes.t) list ->
  ?heap_base:int ->
  entry:string ->
  func list ->
  program
(** Build a program.  Raises {!Diag.Fail} (stage [Structure]) on
    duplicate function names and {!Unknown_function} if [entry] is
    absent. *)

val func_index : program -> string -> int
(** Raises {!Unknown_function}. *)

val with_funcs : program -> func array -> program
(** Functional update of the function array, rebuilding the name index. *)

val func_instr_count : func -> int
val func_byte_size : func -> int
val total_instr_count : program -> int
val total_byte_size : program -> int

val iter_blocks : (int -> func -> Cfg.label -> Cfg.block -> unit) -> program -> unit
(** Iterate over every block as [f fid func label block]. *)

val scale_code : float -> program -> program
(** Code-scaling transform (paper §4.2.3): every block's instruction count
    becomes [max 1 (round (factor * count))].  Semantics are unchanged;
    only the instruction-memory footprint used for layout and trace
    generation scales. *)
