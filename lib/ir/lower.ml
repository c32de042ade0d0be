(* AST -> CFG lowering.

   Translation invariants:
   - every call terminates a basic block (its return continuation is a
     fresh block), so call sites are explicit arcs;
   - short-circuit logicals and ternaries lower to branch diamonds;
   - switch lowers to a [Switch] terminator with C fall-through between
     case bodies;
   - statements after a [return]/[break]/[continue] become real (but
     unreachable, hence zero-weight) blocks, like dead code in a binary.

   Virtual registers are mutable slots, not SSA values: each temporary is
   written before use on every path that reads it, so no phi nodes are
   needed. *)

(* All failures raise [Diag.Fail] with [stage = Lower]; in-function
   failures carry the function name and, where meaningful, the basic
   block under construction, so fuzzer reproducers name the node. *)
let fail fmt = Diag.error ~stage:Diag.Lower fmt

type bblock = {
  mutable rev_insns : Insn.t list;
  mutable bterm : Cfg.term option;
}

type fctx = {
  globals : (string, int) Hashtbl.t;
  blocks : (int, bblock) Hashtbl.t;
  mutable nblocks : int;
  mutable cur : int;
  mutable dead : bool; (* true after a terminator, until a block opens *)
  mutable nregs : int;
  mutable scopes : (string, Insn.reg) Hashtbl.t list;
  mutable break_targets : Cfg.label list;
  mutable continue_targets : Cfg.label list;
  fname : string;
}

let new_block ctx =
  let l = ctx.nblocks in
  ctx.nblocks <- l + 1;
  Hashtbl.add ctx.blocks l { rev_insns = []; bterm = None };
  l

let block ctx l = Hashtbl.find ctx.blocks l

let start ctx l =
  ctx.cur <- l;
  ctx.dead <- false

let fresh_reg ctx =
  let r = ctx.nregs in
  ctx.nregs <- r + 1;
  r

let emit ctx insn =
  if ctx.dead then start ctx (new_block ctx);
  let b = block ctx ctx.cur in
  b.rev_insns <- insn :: b.rev_insns

(* Failure inside a function body: name the function and the block under
   construction. *)
let fail_in ctx fmt =
  Diag.error ~stage:Diag.Lower ~func:ctx.fname ~block:ctx.cur fmt

let terminate ctx term =
  if not ctx.dead then begin
    let b = block ctx ctx.cur in
    (match b.bterm with
    | None -> b.bterm <- Some term
    | Some _ -> fail_in ctx "block terminated twice");
    ctx.dead <- true
  end

let push_scope ctx = ctx.scopes <- Hashtbl.create 8 :: ctx.scopes

let pop_scope ctx =
  match ctx.scopes with
  | _ :: rest -> ctx.scopes <- rest
  | [] -> fail_in ctx "scope underflow"

let declare ctx name =
  match ctx.scopes with
  | scope :: _ ->
    let r = fresh_reg ctx in
    Hashtbl.replace scope name r;
    r
  | [] -> fail_in ctx "no scope for %s" name

let lookup ctx name =
  let rec find = function
    | [] -> fail_in ctx "unbound variable %s" name
    | scope :: rest -> (
      match Hashtbl.find_opt scope name with
      | Some r -> r
      | None -> find rest)
  in
  find ctx.scopes

let global_addr ctx name =
  match Hashtbl.find_opt ctx.globals name with
  | Some a -> a
  | None -> fail_in ctx "unknown global %s" name

let rec compile_expr ctx (e : Ast.expr) : Insn.operand =
  match e with
  | Int n -> Imm n
  | Var name -> Reg (lookup ctx name)
  | Global name -> Imm (global_addr ctx name)
  | Bin (op, a, b) ->
    let oa = compile_expr ctx a in
    let ob = compile_expr ctx b in
    let d = fresh_reg ctx in
    emit ctx (Bin (op, d, oa, ob));
    Reg d
  | Neg a ->
    let oa = compile_expr ctx a in
    let d = fresh_reg ctx in
    emit ctx (Bin (Insn.Sub, d, Imm 0, oa));
    Reg d
  | Not a ->
    let oa = compile_expr ctx a in
    let d = fresh_reg ctx in
    emit ctx (Bin (Insn.Eq, d, oa, Imm 0));
    Reg d
  | Load8 a ->
    let oa = compile_expr ctx a in
    let d = fresh_reg ctx in
    emit ctx (Load8 (d, oa, Imm 0));
    Reg d
  | Load32 a ->
    let oa = compile_expr ctx a in
    let d = fresh_reg ctx in
    emit ctx (Load32 (d, oa, Imm 0));
    Reg d
  | Call (f, args) ->
    let ops = List.map (compile_expr ctx) args in
    let d = fresh_reg ctx in
    let ret_to = new_block ctx in
    terminate ctx (Call { callee = f; args = ops; dst = Some d; ret_to });
    start ctx ret_to;
    Reg d
  | Intrin (intr, args) ->
    let ops = List.map (compile_expr ctx) args in
    let d = fresh_reg ctx in
    emit ctx (Intrin (intr, Some d, ops));
    Reg d
  | And (a, b) ->
    (* r <- a <> 0 && b <> 0, with b evaluated only when a is nonzero. *)
    let d = fresh_reg ctx in
    let oa = compile_expr ctx a in
    let l_rhs = new_block ctx in
    let l_false = new_block ctx in
    let l_end = new_block ctx in
    terminate ctx (Br (oa, l_rhs, l_false));
    start ctx l_rhs;
    let ob = compile_expr ctx b in
    emit ctx (Bin (Insn.Ne, d, ob, Imm 0));
    terminate ctx (Jump l_end);
    start ctx l_false;
    emit ctx (Mov (d, Imm 0));
    terminate ctx (Jump l_end);
    start ctx l_end;
    Reg d
  | Or (a, b) ->
    let d = fresh_reg ctx in
    let oa = compile_expr ctx a in
    let l_true = new_block ctx in
    let l_rhs = new_block ctx in
    let l_end = new_block ctx in
    terminate ctx (Br (oa, l_true, l_rhs));
    start ctx l_true;
    emit ctx (Mov (d, Imm 1));
    terminate ctx (Jump l_end);
    start ctx l_rhs;
    let ob = compile_expr ctx b in
    emit ctx (Bin (Insn.Ne, d, ob, Imm 0));
    terminate ctx (Jump l_end);
    start ctx l_end;
    Reg d
  | Cond (c, t, e) ->
    let d = fresh_reg ctx in
    let oc = compile_expr ctx c in
    let l_t = new_block ctx in
    let l_e = new_block ctx in
    let l_end = new_block ctx in
    terminate ctx (Br (oc, l_t, l_e));
    start ctx l_t;
    let ot = compile_expr ctx t in
    emit ctx (Mov (d, ot));
    terminate ctx (Jump l_end);
    start ctx l_e;
    let oe = compile_expr ctx e in
    emit ctx (Mov (d, oe));
    terminate ctx (Jump l_end);
    start ctx l_end;
    Reg d

let rec compile_stmt ctx (s : Ast.stmt) =
  match s with
  | Decl (name, e) ->
    let o = compile_expr ctx e in
    let r = declare ctx name in
    emit ctx (Mov (r, o))
  | Assign (name, e) ->
    let o = compile_expr ctx e in
    emit ctx (Mov (lookup ctx name, o))
  | Store8 (addr, value) ->
    let oa = compile_expr ctx addr in
    let ov = compile_expr ctx value in
    emit ctx (Store8 (oa, Imm 0, ov))
  | Store32 (addr, value) ->
    let oa = compile_expr ctx addr in
    let ov = compile_expr ctx value in
    emit ctx (Store32 (oa, Imm 0, ov))
  | If (c, then_s, else_s) ->
    let oc = compile_expr ctx c in
    let l_t = new_block ctx in
    let l_join = new_block ctx in
    let l_e = match else_s with [] -> l_join | _ -> new_block ctx in
    terminate ctx (Br (oc, l_t, l_e));
    start ctx l_t;
    compile_body ctx then_s;
    terminate ctx (Jump l_join);
    (match else_s with
    | [] -> ()
    | _ ->
      start ctx l_e;
      compile_body ctx else_s;
      terminate ctx (Jump l_join));
    start ctx l_join
  | While (c, body) ->
    let l_cond = new_block ctx in
    let l_body = new_block ctx in
    let l_end = new_block ctx in
    terminate ctx (Jump l_cond);
    start ctx l_cond;
    let oc = compile_expr ctx c in
    terminate ctx (Br (oc, l_body, l_end));
    start ctx l_body;
    in_loop ctx ~break_to:l_end ~continue_to:l_cond (fun () ->
        compile_body ctx body);
    terminate ctx (Jump l_cond);
    start ctx l_end
  | Do_while (body, c) ->
    let l_body = new_block ctx in
    let l_cond = new_block ctx in
    let l_end = new_block ctx in
    terminate ctx (Jump l_body);
    start ctx l_body;
    in_loop ctx ~break_to:l_end ~continue_to:l_cond (fun () ->
        compile_body ctx body);
    terminate ctx (Jump l_cond);
    start ctx l_cond;
    let oc = compile_expr ctx c in
    terminate ctx (Br (oc, l_body, l_end));
    start ctx l_end
  | For (init, c, step, body) ->
    push_scope ctx;
    compile_body ~scoped:false ctx init;
    let l_cond = new_block ctx in
    let l_body = new_block ctx in
    let l_step = new_block ctx in
    let l_end = new_block ctx in
    terminate ctx (Jump l_cond);
    start ctx l_cond;
    let oc = compile_expr ctx c in
    terminate ctx (Br (oc, l_body, l_end));
    start ctx l_body;
    in_loop ctx ~break_to:l_end ~continue_to:l_step (fun () ->
        compile_body ctx body);
    terminate ctx (Jump l_step);
    start ctx l_step;
    compile_body ~scoped:false ctx step;
    terminate ctx (Jump l_cond);
    pop_scope ctx;
    start ctx l_end
  | Switch (e, cases, default) ->
    let oe = compile_expr ctx e in
    let l_end = new_block ctx in
    let case_labels = List.map (fun _ -> new_block ctx) cases in
    let l_default = match default with [] -> l_end | _ -> new_block ctx in
    let table =
      List.concat
        (List.map2
           (fun (values, _) l -> List.map (fun value -> (value, l)) values)
           cases case_labels)
    in
    terminate ctx (Switch (oe, Array.of_list table, l_default));
    (* Case bodies fall through to the next case, then to default. *)
    let rec next_targets = function
      | [] -> []
      | [ _ ] -> [ l_default ]
      | _ :: (l :: _ as rest) -> l :: next_targets rest
    in
    let fallthroughs = next_targets case_labels in
    ctx.break_targets <- l_end :: ctx.break_targets;
    List.iteri
      (fun idx (_, body) ->
        start ctx (List.nth case_labels idx);
        compile_body ctx body;
        terminate ctx (Jump (List.nth fallthroughs idx)))
      cases;
    (match default with
    | [] -> ()
    | _ ->
      start ctx l_default;
      compile_body ctx default;
      terminate ctx (Jump l_end));
    (match ctx.break_targets with
    | _ :: rest -> ctx.break_targets <- rest
    | [] -> fail_in ctx "break-target underflow after switch");
    start ctx l_end
  | Break -> (
    match ctx.break_targets with
    | l :: _ -> terminate ctx (Jump l)
    | [] -> fail_in ctx "break outside loop/switch")
  | Continue -> (
    match ctx.continue_targets with
    | l :: _ -> terminate ctx (Jump l)
    | [] -> fail_in ctx "continue outside loop")
  | Return None -> terminate ctx (Ret None)
  | Return (Some e) ->
    let o = compile_expr ctx e in
    terminate ctx (Ret (Some o))
  | Expr (Call (f, args)) ->
    (* Statement-position call: discard the result register. *)
    let ops = List.map (compile_expr ctx) args in
    let ret_to = new_block ctx in
    terminate ctx (Call { callee = f; args = ops; dst = None; ret_to });
    start ctx ret_to
  | Expr (Intrin (intr, args)) ->
    let ops = List.map (compile_expr ctx) args in
    emit ctx (Intrin (intr, None, ops))
  | Expr e -> ignore (compile_expr ctx e)

and in_loop ctx ~break_to ~continue_to f =
  ctx.break_targets <- break_to :: ctx.break_targets;
  ctx.continue_targets <- continue_to :: ctx.continue_targets;
  f ();
  (match ctx.break_targets with
  | _ :: rest -> ctx.break_targets <- rest
  | [] -> fail_in ctx "break-target underflow after loop");
  match ctx.continue_targets with
  | _ :: rest -> ctx.continue_targets <- rest
  | [] -> fail_in ctx "continue-target underflow after loop"

and compile_body ?(scoped = true) ctx stmts =
  if scoped then push_scope ctx;
  List.iter (compile_stmt ctx) stmts;
  if scoped then pop_scope ctx

let compile_func globals (f : Ast.func) : Prog.func =
  let ctx =
    {
      globals;
      blocks = Hashtbl.create 64;
      nblocks = 0;
      cur = 0;
      dead = false;
      nregs = 0;
      scopes = [];
      break_targets = [];
      continue_targets = [];
      fname = f.name;
    }
  in
  push_scope ctx;
  List.iter
    (fun p ->
      let r = declare ctx p in
      ignore (r : int))
    f.params;
  let entry = new_block ctx in
  assert (entry = 0);
  start ctx entry;
  compile_body ctx f.body;
  terminate ctx (Ret None);
  pop_scope ctx;
  let nregs = max ctx.nregs 1 in
  (* Real compiled code carries register save/restore sequences that our
     three-address IR does not spell out; account for them in the size
     model so static and dynamic footprints match fixed-format RISC code.
     The entry block gains a prologue, return blocks an epilogue, both
     scaled by how many registers the function touches. *)
  let prologue = 2 + min 8 (nregs / 4) in
  let epilogue = 2 in
  let blocks =
    Array.init ctx.nblocks (fun l ->
        let b = block ctx l in
        let term = match b.bterm with Some t -> t | None -> Cfg.Ret None in
        let insns = Array.of_list (List.rev b.rev_insns) in
        let base = Array.length insns + 1 in
        let size_override =
          match (l, term) with
          | 0, Cfg.Ret _ -> Some (base + prologue + epilogue)
          | 0, _ -> Some (base + prologue)
          | _, Cfg.Ret _ -> Some (base + epilogue)
          | _, _ -> None
        in
        Cfg.mk_block ?size_override insns term)
  in
  { Prog.name = f.name; nparams = List.length f.params; nregs; blocks }

(* Static data is laid out from [globals_base] with 4-byte alignment; the
   heap (for [Alloc]) begins just past the globals.  Address 0 is kept
   unmapped so that 0 can serve as a null pointer. *)
let globals_base = 4096

let align4 n = (n + 3) land lnot 3

let layout_globals (globals : (string * Ast.ginit) list) =
  let table = Hashtbl.create 32 in
  let images = ref [] in
  let addr = ref globals_base in
  List.iter
    (fun (name, init) ->
      if Hashtbl.mem table name then fail "duplicate global %s" name;
      Hashtbl.add table name !addr;
      let size = Ast.ginit_size init in
      let image =
        match init with
        | Ast.Gbytes s -> Some (Bytes.of_string s)
        | Ast.Gstring s -> Some (Bytes.of_string (s ^ "\000"))
        | Ast.Gwords words ->
          let b = Bytes.create (4 * Array.length words) in
          Array.iteri
            (fun idx w -> Bytes.set_int32_le b (4 * idx) (Int32.of_int w))
            words;
          Some b
        | Ast.Gzero _ -> None
      in
      (match image with
      | Some b -> images := (!addr, b) :: !images
      | None -> ());
      addr := align4 (!addr + size))
    globals;
  (table, List.rev !images, align4 (!addr + 16))

let program (p : Ast.program) : Prog.program =
  let table, images, heap_base = layout_globals p.globals in
  let funcs = List.map (compile_func table) p.funcs in
  Prog.make ~data:images ~heap_base ~entry:p.entry funcs
