(* Common shape of a benchmark: a DSL program plus its profiling inputs
   (several, as in the paper's Table 2 "runs" column) and one held-out
   trace input used for the cache simulations. *)

type t = {
  name : string;
  description : string; (* Table 2 "input description" *)
  ast : Ir.Ast.program Lazy.t;
  program : Ir.Prog.program Lazy.t; (* memoized lowering *)
  profile_inputs : Vm.Io.input list Lazy.t;
  trace_input : Vm.Io.input Lazy.t;
}

let make ~name ~description ~ast ~profile_inputs ~trace_input =
  let ast = lazy (ast ()) in
  {
    name;
    description;
    ast;
    program = lazy (Ir.Lower.program (Lazy.force ast));
    profile_inputs = lazy (profile_inputs ());
    trace_input = lazy (trace_input ());
  }

let ast t = Lazy.force t.ast
let program t = Lazy.force t.program
let profile_inputs t = Lazy.force t.profile_inputs
let trace_input t = Lazy.force t.trace_input
let source_lines t = Ir.Ast.program_lines (ast t)
