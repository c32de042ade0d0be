(** First-class layout strategies: a registry of code-placement
    algorithms (function-body block ordering + global function
    ordering), so experiments, the pipeline and the CLI treat the choice
    of algorithm as data.  A new algorithm is one new registry entry. *)

open Ir

type t = {
  id : string;  (** stable CLI/registry name *)
  title : string;
  layout : Prog.func -> Weight.cfg_weights -> Func_layout.t;
  global : int -> entry:int -> Weight.call_weights -> Global_layout.t;
  entry_first : bool;
      (** the strategy guarantees the program's entry function leads the
          layout *)
  splits_dead_code : bool;
      (** never-executed blocks/functions are placed after the packed
          effective region *)
}

val impact : t
(** The paper's placement: trace selection + function-body layout +
    weighted call-graph DFS. *)

val natural : t
(** Unoptimized baseline: definition order everywhere. *)

val all : t list
(** Registry, in presentation order. *)

exception Unknown_strategy of string

val find : string -> t
(** Lookup by [id]; raises {!Unknown_strategy}. *)

val ids : unit -> string list
