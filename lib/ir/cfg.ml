(* Control-flow graph: basic blocks and block terminators.

   A call terminates its basic block and carries an explicit return
   continuation.  This keeps both intra-function arcs (branch paths) and
   inter-function arcs (call sites) first-class, which is what the
   placement algorithm consumes. *)

type label = int

type term =
  | Jump of label
  | Br of Insn.operand * label * label (* if operand <> 0 then fst else snd *)
  | Switch of Insn.operand * (int * label) array * label
  | Ret of Insn.operand option
  | Call of {
      callee : string;
      args : Insn.operand list;
      dst : Insn.reg option;
      ret_to : label;
    }

type block = {
  insns : Insn.t array;
  term : term;
  size_override : int option;
      (* When set, the block is treated as containing this many
         instructions for layout and trace-generation purposes; used by the
         code-scaling experiment (paper section 4.2.3). *)
}

let mk_block ?size_override insns term = { insns; term; size_override }

(* Number of instruction slots the block occupies: its straight-line
   instructions plus one terminator instruction.  Layout-invariant: we do
   not delete fall-through jumps, so static size does not depend on block
   order (documented deviation; it keeps Table 5 and code scaling clean and
   is fair to both the natural and the optimized layouts). *)
let instr_count b =
  match b.size_override with
  | Some n -> n
  | None -> Array.length b.insns + 1

let byte_size b = instr_count b * Insn.bytes_per_insn

(* Intra-function successors in terminator order.  The fall-through /
   most-likely-first orientation of [Br] is preserved by lowering.  A
   [Call] has a single intra-function successor: its return continuation
   (the call arc itself lives in the call graph). *)
let successors b =
  match b.term with
  | Jump l -> [ l ]
  | Br (_, t, f) -> [ t; f ]
  | Switch (_, cases, default) ->
    let targets = Array.to_list (Array.map snd cases) @ [ default ] in
    (* Deduplicate while keeping first-occurrence order. *)
    let seen = Hashtbl.create 8 in
    List.filter
      (fun l ->
        if Hashtbl.mem seen l then false
        else begin
          Hashtbl.add seen l ();
          true
        end)
      targets
  | Ret _ -> []
  | Call { ret_to; _ } -> [ ret_to ]

(* Canonical block reachability: the one definition of a statically dead
   block, shared by the simplifier's unreachable sweep and the layout
   linter.  Depth-first from the entry block (label 0). *)
let reachable (blocks : block array) : bool array =
  let n = Array.length blocks in
  let reach = Array.make n false in
  if n > 0 then begin
    let rec visit l =
      if not reach.(l) then begin
        reach.(l) <- true;
        List.iter visit (successors blocks.(l))
      end
    in
    visit 0
  end;
  reach

let callee b =
  match b.term with
  | Call { callee; _ } -> Some callee
  | Jump _ | Br _ | Switch _ | Ret _ -> None

(* Rewrite every label in a terminator through [f]. *)
let map_term_labels f = function
  | Jump l -> Jump (f l)
  | Br (o, t, fl) -> Br (o, f t, f fl)
  | Switch (o, cases, d) ->
    Switch (o, Array.map (fun (v, l) -> (v, f l)) cases, f d)
  | Ret o -> Ret o
  | Call c -> Call { c with ret_to = f c.ret_to }

(* Rewrite every register in a terminator through [f]. *)
let map_term_regs f = function
  | Jump _ as t -> t
  | Br (o, a, b) -> Br (Insn.map_operand_regs f o, a, b)
  | Switch (o, cases, d) -> Switch (Insn.map_operand_regs f o, cases, d)
  | Ret o -> Ret (Option.map (Insn.map_operand_regs f) o)
  | Call c ->
    Call
      {
        c with
        args = List.map (Insn.map_operand_regs f) c.args;
        dst = Option.map f c.dst;
      }

let max_reg_of_term = function
  | Jump _ -> -1
  | Br (o, _, _) | Switch (o, _, _) -> Insn.max_reg (Mov (0, o))
  | Ret (Some o) -> Insn.max_reg (Mov (0, o))
  | Ret None -> -1
  | Call { args; dst; _ } ->
    let d = match dst with Some r -> r | None -> -1 in
    List.fold_left
      (fun acc o -> max acc (Insn.max_reg (Mov (0, o))))
      d args

let max_reg_of_block b =
  Array.fold_left
    (fun acc i -> max acc (Insn.max_reg i))
    (max_reg_of_term b.term)
    b.insns
