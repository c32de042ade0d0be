(** Common shape of a benchmark: DSL program + profiling inputs + one
    held-out trace input. *)

type t = {
  name : string;
  description : string;  (** Table 2 "input description" *)
  ast : Ir.Ast.program Lazy.t;
  program : Ir.Prog.program Lazy.t;
  profile_inputs : Vm.Io.input list Lazy.t;
  trace_input : Vm.Io.input Lazy.t;
}

val make :
  name:string ->
  description:string ->
  ast:(unit -> Ir.Ast.program) ->
  profile_inputs:(unit -> Vm.Io.input list) ->
  trace_input:(unit -> Vm.Io.input) ->
  t

val ast : t -> Ir.Ast.program
val program : t -> Ir.Prog.program
val profile_inputs : t -> Vm.Io.input list
val trace_input : t -> Vm.Io.input
val source_lines : t -> int
