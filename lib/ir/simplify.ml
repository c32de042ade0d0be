(* Classic CFG cleanups, run before profiling and again after inline
   expansion (the splices leave argument-move blocks behind):

   - constant folding of instructions whose operands are immediate;
   - branch/switch simplification when the condition is immediate;
   - jump threading through empty forwarding blocks;
   - unreachable-block elimination (with label compaction).

   Reachable-but-never-executed code (cold arms, unused library
   functions) is deliberately untouched — that is the dead code the
   placement algorithm pushes out of the effective region.  Blocks
   carrying a size override (prologue/epilogue padding, scaled code) are
   never treated as empty forwarders. *)

let fold_insn insn =
  match insn with
  | Insn.Bin (op, d, Imm a, Imm b) -> (
    match Insn.eval_binop op a b with
    | value -> Insn.Mov (d, Imm value)
    | exception Division_by_zero -> insn)
  | Insn.Mov _ | Insn.Bin _ | Insn.Load8 _ | Insn.Load32 _ | Insn.Store8 _
  | Insn.Store32 _ | Insn.Intrin _ ->
    insn

let fold_term term =
  match term with
  | Cfg.Br (Imm c, t, f) -> Cfg.Jump (if c <> 0 then t else f)
  | Cfg.Br (_, t, f) when t = f -> Cfg.Jump t
  | Cfg.Switch (Imm v, cases, default) ->
    let target =
      match Array.find_opt (fun (value, _) -> value = v) cases with
      | Some (_, l) -> l
      | None -> default
    in
    Cfg.Jump target
  | Cfg.Jump _ | Cfg.Br _ | Cfg.Switch _ | Cfg.Ret _ | Cfg.Call _ -> term

(* A block that only forwards: no instructions, no size override, ends in
   an unconditional jump. *)
let forward_target (blocks : Cfg.block array) l =
  let b = blocks.(l) in
  if Array.length b.Cfg.insns = 0 && b.Cfg.size_override = None then
    match b.Cfg.term with Cfg.Jump l' -> Some l' | _ -> None
  else None

(* Resolve a jump chain with a cycle guard; the entry block (label 0) is
   never threaded away as a target since calls land there. *)
let rec chase blocks seen l =
  if List.mem l seen then l
  else
    match forward_target blocks l with
    | Some l' when l' <> l -> chase blocks (l :: seen) l'
    | Some _ | None -> l

let thread_jumps (blocks : Cfg.block array) =
  Array.map
    (fun b ->
      { b with Cfg.term = Cfg.map_term_labels (chase blocks []) b.Cfg.term })
    blocks

(* Drop blocks unreachable from the entry, compacting labels (entry stays
   0).  Reachability comes from the canonical [Cfg.reachable], shared
   with the layout linter. *)
let sweep_unreachable (blocks : Cfg.block array) =
  let n = Array.length blocks in
  let reach = Cfg.reachable blocks in
  let remap = Array.make n (-1) in
  let next = ref 0 in
  for l = 0 to n - 1 do
    if reach.(l) then begin
      remap.(l) <- !next;
      incr next
    end
  done;
  if !next = n then blocks
  else begin
    let fresh = Array.make !next blocks.(0) in
    for l = 0 to n - 1 do
      if reach.(l) then
        fresh.(remap.(l)) <-
          {
            (blocks.(l)) with
            Cfg.term =
              Cfg.map_term_labels (fun t -> remap.(t)) blocks.(l).Cfg.term;
          }
    done;
    fresh
  end

let func (f : Prog.func) : Prog.func =
  let blocks = ref f.Prog.blocks in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 8 do
    incr rounds;
    let next =
      Array.map
        (fun b ->
          {
            b with
            Cfg.insns = Array.map fold_insn b.Cfg.insns;
            term = fold_term b.Cfg.term;
          })
        !blocks
    in
    let next = thread_jumps next in
    let next = sweep_unreachable next in
    changed := next <> !blocks;
    blocks := next
  done;
  { f with blocks = !blocks }

let program (p : Prog.program) : Prog.program =
  Prog.with_funcs p (Array.map func p.Prog.funcs)
