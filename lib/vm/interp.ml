(* CFG interpreter, translate-then-run.

   Executes a lowered program against an input, counting every executed
   block, every control transfer and every call into dense per-run
   arrays.  The same loop serves three purposes:
   - plain execution (workload correctness tests),
   - execution profiling (paper step 1; [Profile] folds the counters),
   - dynamic trace generation for the cache simulation (see [Sim]).

   [run] first translates every block of the program into a [code]
   record (closure generation, Feeley & Lapalme 1987): its cost, global
   index and first successor slot, its body as an array of closures over
   the register file with every operand already resolved, and its exit
   with labels, slots, callee and argument readers already resolved.
   The loop then only counts, charges fuel, calls the body closures and
   dispatches on the exit; nothing is matched on [Insn.t] or [Cfg.term]
   while the program runs.  Translation is per run (programs are at most
   ~1,100 static blocks), so runs share no mutable state.

   A closure raises its fault when it executes, never at translation: a
   block that never runs may hold any faulting instruction.

   Dynamic instruction counts use [Cfg.instr_count], so the code-scaling
   transform is reflected in the fetch stream without changing semantics. *)

open Ir

exception Fault of string

let fault fmt = Fmt.kstr (fun s -> raise (Fault s)) fmt

(* Successor slots of a terminator, in terminator order: a [Br]'s true
   then false target, a [Switch]'s case targets then its default, a
   call's return continuation.  Slots are positions, not labels: [Br]
   with [t = f] has two slots to one label. *)
let slot_count = function
  | Cfg.Jump _ | Cfg.Call _ -> 1
  | Cfg.Br _ -> 2
  | Cfg.Switch (_, cases, _) -> Array.length cases + 1
  | Cfg.Ret _ -> 0

let slot_target term k =
  match term with
  | Cfg.Jump l -> l
  | Cfg.Call { ret_to; _ } -> ret_to
  | Cfg.Br (_, t, f) -> if k = 0 then t else f
  | Cfg.Switch (_, cases, default) ->
    if k < Array.length cases then snd cases.(k) else default
  | Cfg.Ret _ -> invalid_arg "Interp.slot_target: Ret has no successors"

(* Blocks are numbered globally, function by function, and successor
   slots globally, block by block. *)
type counts = {
  prog : Prog.program;
  block_base : int array; (* per fid: global index of block 0; +1 total *)
  block_fid : int array; (* per global block *)
  slot_base : int array; (* per global block: first slot; +1 total *)
  slot_block : int array; (* per global slot: owning global block *)
  callee : int array; (* per global block: callee fid, -1 if none/unknown *)
  blocks : int array; (* executions per global block *)
  slots : int array; (* transfers per global slot *)
  taken : int array; (* slots in first-taken order, [n_taken] of them *)
  mutable n_taken : int;
  called : int array; (* call blocks in first-call order *)
  mutable n_called : int;
}

let counts_of (prog : Prog.program) =
  let nfuncs = Array.length prog.funcs in
  let block_base = Array.make (nfuncs + 1) 0 in
  Array.iteri
    (fun fid (f : Prog.func) ->
      block_base.(fid + 1) <- block_base.(fid) + Array.length f.blocks)
    prog.funcs;
  let nblocks = block_base.(nfuncs) in
  let block_fid = Array.make nblocks 0 in
  let slot_base = Array.make (nblocks + 1) 0 in
  let callee = Array.make nblocks (-1) in
  Prog.iter_blocks
    (fun fid _ l (b : Cfg.block) ->
      let g = block_base.(fid) + l in
      block_fid.(g) <- fid;
      slot_base.(g + 1) <- slot_base.(g) + slot_count b.term;
      match b.term with
      | Cfg.Call { callee = name; _ } ->
        Option.iter (fun i -> callee.(g) <- i) (Hashtbl.find_opt prog.by_name name)
      | Cfg.Jump _ | Cfg.Br _ | Cfg.Switch _ | Cfg.Ret _ -> ())
    prog;
  let nslots = slot_base.(nblocks) in
  let slot_block = Array.make nslots 0 in
  for g = 0 to nblocks - 1 do
    Array.fill slot_block slot_base.(g) (slot_base.(g + 1) - slot_base.(g)) g
  done;
  {
    prog;
    block_base;
    block_fid;
    slot_base;
    slot_block;
    callee;
    blocks = Array.make nblocks 0;
    slots = Array.make nslots 0;
    taken = Array.make nslots 0;
    n_taken = 0;
    called = Array.make nblocks 0;
    n_called = 0;
  }

let take c s =
  let n = c.slots.(s) in
  if n = 0 then begin
    c.taken.(c.n_taken) <- s;
    c.n_taken <- c.n_taken + 1
  end;
  c.slots.(s) <- n + 1
[@@inline]

let block_count c fid l = c.blocks.(c.block_base.(fid) + l)

let iter_arcs c f =
  for i = 0 to c.n_taken - 1 do
    let s = c.taken.(i) in
    let g = c.slot_block.(s) in
    let fid = c.block_fid.(g) in
    let src = g - c.block_base.(fid) in
    let term = c.prog.funcs.(fid).blocks.(src).Cfg.term in
    f fid src (slot_target term (s - c.slot_base.(g))) c.slots.(s)
  done

(* A call block calls once per execution, so its block count is its
   call count. *)
let iter_calls c f =
  for i = 0 to c.n_called - 1 do
    let g = c.called.(i) in
    let fid = c.block_fid.(g) in
    f fid (g - c.block_base.(fid)) c.callee.(g) c.blocks.(g)
  done

type result = {
  return_value : int;
  dyn_insns : int; (* instruction fetches, honoring size overrides *)
  dyn_blocks : int;
  dyn_calls : int; (* dynamic function calls *)
  dyn_branches : int; (* control transfers other than call/return *)
  io : Io.t;
  counts : counts;
}

(* {1 Translation} *)

(* Reads an operand from the register file. *)
type reader = int array -> int

(* A block's exit, resolved: every target is a global block index (-1
   for a label outside its function, which faults with the same
   [Invalid_argument] as an out-of-range label when taken). *)
type exit =
  | Goto of int
  | If of reader * int * int (* condition, true target, false target *)
  | Cases of reader * int array * int array * int
      (* scrutinee, case values, case targets, default *)
  | Return of reader
  | Invoke of invoke

and invoke = {
  callee_fid : int; (* -1: absent, raised when the call executes *)
  name : string;
  frame_size : int; (* the callee's register count *)
  args : reader array; (* the first [nparams] arguments *)
  entry : int; (* the callee's block 0 *)
  dst : int; (* result register, -1 for none *)
  ret_to : int; (* continuation block *)
}

type code = {
  fid : int;
  label : Cfg.label;
  cost : int; (* [Cfg.instr_count] *)
  slot : int; (* first successor slot *)
  body : (int array -> unit) array;
  exit : exit;
}

let reader = function
  | Insn.Reg r -> fun regs -> regs.(r)
  | Insn.Imm n -> fun _ -> n

let address base off : reader =
  match (base, off) with
  | Insn.Reg x, Insn.Imm n -> fun r -> r.(x) + n
  | Insn.Reg x, Insn.Reg y -> fun r -> r.(x) + r.(y)
  | Insn.Imm n, Insn.Reg y -> fun r -> n + r.(y)
  | Insn.Imm n, Insn.Imm m ->
    let a = n + m in
    fun _ -> a

let nonzero d = if d = 0 then fault "division by zero" else d [@@inline]

let mov d = function
  | Insn.Reg s -> fun r -> r.(d) <- r.(s)
  | Insn.Imm n -> fun r -> r.(d) <- n

(* One closure per operator and operand shape for the two shapes
   lowering emits (Reg/Reg, Reg/Imm); the rest read both operands. *)
let bin (op : Insn.binop) d a b : int array -> unit =
  match (a, b) with
  | Insn.Reg x, Insn.Reg y -> (
    match op with
    | Add -> fun r -> r.(d) <- r.(x) + r.(y)
    | Sub -> fun r -> r.(d) <- r.(x) - r.(y)
    | Mul -> fun r -> r.(d) <- r.(x) * r.(y)
    | Div -> fun r -> r.(d) <- r.(x) / nonzero r.(y)
    | Rem -> fun r -> r.(d) <- r.(x) mod nonzero r.(y)
    | And -> fun r -> r.(d) <- r.(x) land r.(y)
    | Or -> fun r -> r.(d) <- r.(x) lor r.(y)
    | Xor -> fun r -> r.(d) <- r.(x) lxor r.(y)
    | Shl -> fun r -> r.(d) <- r.(x) lsl (r.(y) land 31)
    | Shr -> fun r -> r.(d) <- r.(x) asr (r.(y) land 31)
    | Lt -> fun r -> r.(d) <- (if r.(x) < r.(y) then 1 else 0)
    | Le -> fun r -> r.(d) <- (if r.(x) <= r.(y) then 1 else 0)
    | Gt -> fun r -> r.(d) <- (if r.(x) > r.(y) then 1 else 0)
    | Ge -> fun r -> r.(d) <- (if r.(x) >= r.(y) then 1 else 0)
    | Eq -> fun r -> r.(d) <- (if r.(x) = r.(y) then 1 else 0)
    | Ne -> fun r -> r.(d) <- (if r.(x) <> r.(y) then 1 else 0))
  | Insn.Reg x, Insn.Imm n -> (
    match op with
    | Add -> fun r -> r.(d) <- r.(x) + n
    | Sub -> fun r -> r.(d) <- r.(x) - n
    | Mul -> fun r -> r.(d) <- r.(x) * n
    | Div -> fun r -> r.(d) <- r.(x) / nonzero n
    | Rem -> fun r -> r.(d) <- r.(x) mod nonzero n
    | And -> fun r -> r.(d) <- r.(x) land n
    | Or -> fun r -> r.(d) <- r.(x) lor n
    | Xor -> fun r -> r.(d) <- r.(x) lxor n
    | Shl ->
      let n = n land 31 in
      fun r -> r.(d) <- r.(x) lsl n
    | Shr ->
      let n = n land 31 in
      fun r -> r.(d) <- r.(x) asr n
    | Lt -> fun r -> r.(d) <- (if r.(x) < n then 1 else 0)
    | Le -> fun r -> r.(d) <- (if r.(x) <= n then 1 else 0)
    | Gt -> fun r -> r.(d) <- (if r.(x) > n then 1 else 0)
    | Ge -> fun r -> r.(d) <- (if r.(x) >= n then 1 else 0)
    | Eq -> fun r -> r.(d) <- (if r.(x) = n then 1 else 0)
    | Ne -> fun r -> r.(d) <- (if r.(x) <> n then 1 else 0))
  | Insn.Imm _, _ -> (
    let a = reader a and b = reader b in
    match op with
    | Div | Rem ->
      fun r -> r.(d) <- Insn.eval_binop op (a r) (nonzero (b r))
    | Add | Sub | Mul | And | Or | Xor | Shl | Shr | Lt | Le | Gt | Ge | Eq
    | Ne ->
      fun r -> r.(d) <- Insn.eval_binop op (a r) (b r))

(* An intrinsic's value; [dst] then stores or drops it. *)
let intrinsic mem io heap (intr : Insn.intrinsic) args : reader =
  match (intr, List.map reader args) with
  | Getc, [ s ] -> fun r -> Io.getc io (s r)
  | Putc, [ s; b ] ->
    fun r ->
      Io.putc io (s r) (b r);
      0
  | Stream_len, [ s ] -> fun r -> Io.stream_len io (s r)
  | Arg, [ idx ] -> fun r -> Io.arg io (idx r)
  | Alloc, [ n ] ->
    fun r ->
      let n = n r in
      if n < 0 then fault "alloc of negative size %d" n;
      let addr = !heap in
      heap := (addr + n + 3) land lnot 3;
      (* Touch the last byte so the memory grows eagerly. *)
      if n > 0 then Memory.write8 mem (addr + n - 1) 0;
      addr
  | Abort, _ -> fun _ -> fault "abort intrinsic executed"
  | (Getc | Putc | Stream_len | Arg | Alloc), _ ->
    fun _ -> fault "intrinsic %s: wrong arity" (Insn.intrinsic_name intr)

let insn mem io heap : Insn.t -> int array -> unit = function
  | Mov (d, o) -> mov d o
  | Bin (op, d, a, b) -> bin op d a b
  | Load8 (d, b, o) ->
    let a = address b o in
    fun r -> r.(d) <- Memory.read8 mem (a r)
  | Load32 (d, b, o) ->
    let a = address b o in
    fun r -> r.(d) <- Memory.read32 mem (a r)
  | Store8 (b, o, v) ->
    let a = address b o and v = reader v in
    fun r -> Memory.write8 mem (a r) (v r)
  | Store32 (b, o, v) ->
    let a = address b o and v = reader v in
    fun r -> Memory.write32 mem (a r) (v r)
  | Intrin (intr, dst, args) -> (
    let value = intrinsic mem io heap intr args in
    match dst with
    | Some d -> fun r -> r.(d) <- value r
    | None -> fun r -> ignore (value r))

(* The global index of block [l] of function [fid], -1 when out of range. *)
let target c fid l =
  let base = c.block_base.(fid) in
  if l >= 0 && base + l < c.block_base.(fid + 1) then base + l else -1

let entry c fid = target c fid 0

(* Translate every block of the program, indexed by global block. *)
let translate (prog : Prog.program) c mem io heap =
  let target = target c and insn = insn mem io heap in
  let exit fid g : Cfg.term -> exit = function
    | Jump l -> Goto (target fid l)
    | Br (o, t, f) -> If (reader o, target fid t, target fid f)
    | Switch (o, cases, default) ->
      Cases
        ( reader o,
          Array.map fst cases,
          Array.map (fun (_, l) -> target fid l) cases,
          target fid default )
    | Ret o -> Return (reader (Option.value o ~default:(Insn.Imm 0)))
    | Call { callee = name; args; dst; ret_to } ->
      let callee_fid = c.callee.(g) in
      let frame_size, nparams =
        if callee_fid < 0 then (0, 0)
        else
          let f = prog.funcs.(callee_fid) in
          (f.nregs, f.nparams)
      in
      Invoke
        {
          callee_fid;
          name;
          frame_size;
          args =
            Array.of_list
              (List.filteri (fun i _ -> i < nparams) args |> List.map reader);
          entry = (if callee_fid < 0 then -1 else entry c callee_fid);
          dst = Option.value dst ~default:(-1);
          ret_to = target fid ret_to;
        }
  in
  Array.init (Array.length c.block_fid) (fun g ->
      let fid = c.block_fid.(g) in
      let label = g - c.block_base.(fid) in
      let b = prog.funcs.(fid).blocks.(label) in
      {
        fid;
        label;
        cost = Cfg.instr_count b;
        slot = c.slot_base.(g);
        body = Array.map insn b.insns;
        exit = exit fid g b.term;
      })

(* {1 Execution} *)

type frame = {
  caller_regs : int array;
  ret_dst : int; (* destination register, -1 for none *)
  ret_to : int; (* continuation block in the caller *)
  ret_slot : int; (* global slot of the call block's continuation arc *)
}

let run ?block_sink ?(fuel = 2_000_000_000) (prog : Prog.program)
    (input : Io.input) : result =
  let io = Io.of_input input in
  let c = counts_of prog in
  let code = translate prog c (Memory.of_program prog) io (ref prog.heap_base) in
  (* Instructions executed = fuel spent. *)
  let fuel0 = fuel in
  let fuel = ref fuel in
  let blocks = ref 0 and calls = ref 0 and branches = ref 0 in
  (* The explicit call stack; returning from the entry function ends the
     program. *)
  let stack = ref [] in
  let regs = ref (Array.make prog.funcs.(prog.entry).nregs 0) in
  let cur = ref (entry c prog.entry) in
  let return_value = ref 0 in
  let running = ref true in
  while !running do
    let g = !cur in
    let b = code.(g) in
    c.blocks.(g) <- c.blocks.(g) + 1;
    (match block_sink with None -> () | Some sink -> sink b.fid b.label);
    incr blocks;
    fuel := !fuel - b.cost;
    if !fuel < 0 then
      fault "out of fuel (%d instructions executed)" (fuel0 - !fuel);
    let r = !regs in
    let body = b.body in
    for i = 0 to Array.length body - 1 do
      (Array.unsafe_get body i) r
    done;
    match b.exit with
    | Goto t ->
      incr branches;
      take c b.slot;
      cur := t
    | If (cond, t, f) ->
      incr branches;
      if cond r <> 0 then begin
        take c b.slot;
        cur := t
      end
      else begin
        take c (b.slot + 1);
        cur := f
      end
    | Cases (scrutinee, values, targets, default) ->
      incr branches;
      let v = scrutinee r in
      let n = Array.length values in
      let k = ref 0 in
      while !k < n && values.(!k) <> v do
        incr k
      done;
      take c (b.slot + !k);
      cur := if !k < n then targets.(!k) else default
    | Return value -> (
      let value = value r in
      match !stack with
      | [] ->
        return_value := value;
        running := false
      | fr :: rest ->
        stack := rest;
        (* The intra-function arc from the call block to its return
           continuation is taken when the call returns. *)
        take c fr.ret_slot;
        regs := fr.caller_regs;
        if fr.ret_dst >= 0 then fr.caller_regs.(fr.ret_dst) <- value;
        cur := fr.ret_to)
    | Invoke k ->
      incr calls;
      if k.callee_fid < 0 then raise (Prog.Unknown_function k.name);
      if c.blocks.(g) = 1 then begin
        c.called.(c.n_called) <- g;
        c.n_called <- c.n_called + 1
      end;
      let callee_regs = Array.make k.frame_size 0 in
      for i = 0 to Array.length k.args - 1 do
        callee_regs.(i) <- k.args.(i) r
      done;
      stack :=
        { caller_regs = r; ret_dst = k.dst; ret_to = k.ret_to; ret_slot = b.slot }
        :: !stack;
      regs := callee_regs;
      cur := k.entry
  done;
  {
    return_value = !return_value;
    dyn_insns = fuel0 - !fuel;
    dyn_blocks = !blocks;
    dyn_calls = !calls;
    dyn_branches = !branches;
    io;
    counts = c;
  }
