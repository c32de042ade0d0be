(* CFG interpreter, translate-then-run.

   Executes a lowered program against an input, counting every executed
   block and every transfer through an event slot (successor slots, a
   call's entry into its callee, a [Ret]'s return into its caller) into
   the node of its call path in a calling-context tree, and logging
   each (node, slot) pair the first time it is taken: each frame
   carries its caller's node, so [Invoke] descends to the callee's node
   and [Return] climbs back.  The same loop serves three purposes:
   - plain execution (workload correctness tests),
   - execution profiling (paper step 1; [Profile] projects the tree
     onto functions, and [Placement.Inline] onto an inlined program),
   - dynamic trace generation for the cache simulation (see [Sim]).

   [run] first translates every block of the program into a [code]
   record (closure generation, Feeley & Lapalme 1987): its cost, label
   and first event slot, its body as an array of closures over
   the register file with every operand already resolved, and its exit
   with labels, slots, callee and argument readers already resolved.
   The loop then only counts, charges fuel, calls the body closures and
   dispatches on the exit; nothing is matched on [Insn.t] or [Cfg.term]
   while the program runs.  Translation is per run (programs are at most
   ~1,100 static blocks), so runs share no mutable state but a tree the
   caller passes.

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

(* Event slots of a block: its successor slots, then one more for a
   call block (its entry into the callee, taken when it calls) and for
   a [Ret] block (its return into the caller).  These two are the
   transfers an inlined copy of the code turns into arcs. *)
let event_slots term =
  slot_count term
  +
  match term with
  | Cfg.Call _ | Cfg.Ret _ -> 1
  | Cfg.Jump _ | Cfg.Br _ | Cfg.Switch _ -> 0

(* The slot through which every execution of a block passes exactly
   once: a call's entry, a return, or (summed) the successor slots. *)
let executions term slots base =
  match term with
  | Cfg.Call _ -> slots.(base + 1)
  | Cfg.Ret _ -> slots.(base)
  | Cfg.Jump _ | Cfg.Br _ | Cfg.Switch _ ->
    let n = ref 0 in
    for k = 0 to slot_count term - 1 do
      n := !n + slots.(base + k)
    done;
    !n

(* A calling context: one node per distinct call path of the run (no
   merging of recursive calls), its children indexed by the rank of the
   call block among its function's call blocks, in label order. *)
type context = {
  id : int;
  fid : int;
  site : Cfg.label;
  mutable calls : int;
  callees : context option array;
}

(* Static per-function tables, the tree, the transfers each context
   made through every event slot of its function (a block's executions
   are its [executions]), and the log: every (context, slot) pair in
   the order it was first taken, packed as [id lsl slot_bits lor slot]. *)
type counts = {
  prog : Prog.program;
  slot_base : int array array; (* per fid, per label: first slot; +1 total *)
  slot_block : int array array; (* per fid, per slot: owning label *)
  call_rank : int array array; (* per fid, per label: rank among call blocks *)
  callee : int array array; (* per fid, per label: callee fid, -1 if none *)
  mutable nodes : context array; (* by id; [n_nodes] of them *)
  mutable slots : int array array; (* by id: per event slot of its fid *)
  mutable n_nodes : int;
  mutable log : int array;
  mutable n_log : int;
}

let slot_bits = 24

(* Append to a growable array, doubling it when full. *)
let push arr n x =
  let arr =
    if n < Array.length arr then arr
    else Array.append arr (Array.make (max 16 n) x)
  in
  arr.(n) <- x;
  arr

let new_node c fid ~site =
  let node =
    {
      id = c.n_nodes;
      fid;
      site;
      calls = 0;
      callees =
        Array.make
          (Array.fold_left
             (fun n r -> if r >= 0 then n + 1 else n)
             0 c.call_rank.(fid))
          None;
    }
  in
  c.nodes <- push c.nodes c.n_nodes node;
  c.slots <- push c.slots c.n_nodes (Array.make (Array.length c.slot_block.(fid)) 0);
  c.n_nodes <- c.n_nodes + 1;
  node

let empty (prog : Prog.program) =
  let slot_base =
    Array.map
      (fun (f : Prog.func) ->
        let base = Array.make (Array.length f.blocks + 1) 0 in
        Array.iteri
          (fun l (b : Cfg.block) -> base.(l + 1) <- base.(l) + event_slots b.term)
          f.blocks;
        if base.(Array.length f.blocks) >= 1 lsl slot_bits then
          invalid_arg "Interp: too many event slots in one function";
        base)
      prog.funcs
  in
  let slot_block =
    Array.map
      (fun base ->
        let n = Array.length base - 1 in
        let owner = Array.make base.(n) 0 in
        for l = 0 to n - 1 do
          Array.fill owner base.(l) (base.(l + 1) - base.(l)) l
        done;
        owner)
      slot_base
  in
  let call_rank =
    Array.map
      (fun (f : Prog.func) ->
        let rank = ref 0 in
        Array.map
          (fun (b : Cfg.block) ->
            match b.term with
            | Cfg.Call _ ->
              incr rank;
              !rank - 1
            | Cfg.Jump _ | Cfg.Br _ | Cfg.Switch _ | Cfg.Ret _ -> -1)
          f.blocks)
      prog.funcs
  in
  let callee =
    Array.map
      (fun (f : Prog.func) ->
        Array.map
          (fun (b : Cfg.block) ->
            match b.term with
            | Cfg.Call { callee = name; _ } ->
              Option.value ~default:(-1) (Hashtbl.find_opt prog.by_name name)
            | Cfg.Jump _ | Cfg.Br _ | Cfg.Switch _ | Cfg.Ret _ -> -1)
          f.blocks)
      prog.funcs
  in
  let c =
    {
      prog;
      slot_base;
      slot_block;
      call_rank;
      callee;
      nodes = [||];
      slots = [||];
      n_nodes = 0;
      log = [||];
      n_log = 0;
    }
  in
  ignore (new_node c prog.entry ~site:(-1));
  c

let program c = c.prog
let contexts c = c.nodes.(0)

let log c node s =
  c.log <- push c.log c.n_log ((node.id lsl slot_bits) lor s);
  c.n_log <- c.n_log + 1

let add c node s n =
  let slots = c.slots.(node.id) in
  let m = slots.(s) in
  if m = 0 then log c node s;
  slots.(s) <- m + n
[@@inline]

let child c node l =
  let r = c.call_rank.(node.fid).(l) in
  if r < 0 then None else node.callees.(r)

let enter c node l =
  let r = c.call_rank.(node.fid).(l) in
  match node.callees.(r) with
  | Some callee -> callee
  | None ->
    let callee = new_node c c.callee.(node.fid).(l) ~site:l in
    node.callees.(r) <- Some callee;
    callee

let count c node l k n = add c node (c.slot_base.(node.fid).(l) + k) n

(* The [i]th logged pair. *)
let event c i =
  let e = c.log.(i) in
  (c.nodes.(e lsr slot_bits), e land ((1 lsl slot_bits) - 1))

let iter_events c f =
  for i = 0 to c.n_log - 1 do
    let node, s = event c i in
    let l = c.slot_block.(node.fid).(s) in
    f node l (s - c.slot_base.(node.fid).(l)) c.slots.(node.id).(s)
  done

(* {2 Per-function views: every context of a function summed} *)

(* Event-slot transfers per function, summed over its contexts. *)
let slot_totals c =
  let sums = Array.map (fun owner -> Array.make (Array.length owner) 0) c.slot_block in
  for id = 0 to c.n_nodes - 1 do
    let sum = sums.(c.nodes.(id).fid) in
    Array.iteri (fun s n -> sum.(s) <- sum.(s) + n) c.slots.(id)
  done;
  sums

let block_counts c =
  let sums = slot_totals c in
  Array.mapi
    (fun fid (f : Prog.func) ->
      Array.mapi
        (fun l (b : Cfg.block) ->
          executions b.term sums.(fid) c.slot_base.(fid).(l))
        f.blocks)
    c.prog.funcs

(* [f fid label k n] once per event slot of a function, in the order the
   slot was first taken in any context; [n] sums its contexts. *)
let iter_slots c f =
  let sums = slot_totals c in
  for i = 0 to c.n_log - 1 do
    let node, s = event c i in
    let fid = node.fid in
    let n = sums.(fid).(s) in
    if n > 0 then begin
      sums.(fid).(s) <- 0;
      let l = c.slot_block.(fid).(s) in
      f fid l (s - c.slot_base.(fid).(l)) n
    end
  done

let iter_arcs c f =
  iter_slots c (fun fid l k n ->
      let term = c.prog.funcs.(fid).blocks.(l).Cfg.term in
      if k < slot_count term then f fid l (slot_target term k) n)

(* A call block's extra slot is its entry into the callee: one per
   call. *)
let iter_calls c f =
  iter_slots c (fun fid l k n ->
      match c.prog.funcs.(fid).blocks.(l).Cfg.term with
      | Cfg.Call _ when k = 1 -> f fid l c.callee.(fid).(l) n
      | Cfg.Call _ | Cfg.Jump _ | Cfg.Br _ | Cfg.Switch _ | Cfg.Ret _ -> ())

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

(* Global block indices: block [l] of function [fid] is
   [base.(fid) + l]; [base] has one more entry, the total. *)
let block_base (prog : Prog.program) =
  let base = Array.make (Array.length prog.funcs + 1) 0 in
  Array.iteri
    (fun fid (f : Prog.func) -> base.(fid + 1) <- base.(fid) + Array.length f.blocks)
    prog.funcs;
  base

(* The global index of block [l] of function [fid], -1 when out of range. *)
let target base fid l =
  if l >= 0 && base.(fid) + l < base.(fid + 1) then base.(fid) + l else -1

(* Translate every block of the program, indexed by global block. *)
let translate (prog : Prog.program) c mem io heap =
  let base = block_base prog in
  let target = target base and insn = insn mem io heap in
  let exit fid label : Cfg.term -> exit = function
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
      let callee_fid = c.callee.(fid).(label) in
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
          entry = (if callee_fid < 0 then -1 else target callee_fid 0);
          dst = Option.value dst ~default:(-1);
          ret_to = target fid ret_to;
        }
  in
  let code =
    Array.mapi
      (fun fid (f : Prog.func) ->
        Array.mapi
          (fun label (b : Cfg.block) ->
            {
              fid;
              label;
              cost = Cfg.instr_count b;
              slot = c.slot_base.(fid).(label);
              body = Array.map insn b.insns;
              exit = exit fid label b.term;
            })
          f.blocks)
      prog.funcs
  in
  (Array.concat (Array.to_list code), target prog.entry 0)

(* {1 Execution} *)

type frame = {
  caller_regs : int array;
  ret_dst : int; (* destination register, -1 for none *)
  ret_to : int; (* continuation block in the caller *)
  ret_slot : int; (* the call block's continuation slot *)
  ret_context : context; (* the caller's calling context *)
}

let run ?block_sink ?(fuel = 2_000_000_000) ?counts (prog : Prog.program)
    (input : Io.input) : result =
  let io = Io.of_input input in
  let c = match counts with Some c -> c | None -> empty prog in
  if c.prog != prog then invalid_arg "Interp.run: counts of another program";
  let code, start =
    translate prog c (Memory.of_program prog) io (ref prog.heap_base)
  in
  (* Instructions executed = fuel spent. *)
  let fuel0 = fuel in
  let fuel = ref fuel in
  let blocks = ref 0 and calls = ref 0 and branches = ref 0 in
  (* The explicit call stack; returning from the entry function ends the
     program. *)
  let stack = ref [] in
  let regs = ref (Array.make prog.funcs.(prog.entry).nregs 0) in
  let cur = ref start in
  let root = contexts c in
  let ctx = ref root in
  root.calls <- root.calls + 1;
  let return_value = ref 0 in
  let running = ref true in
  while !running do
    let b = code.(!cur) in
    let node = !ctx in
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
      add c node b.slot 1;
      cur := t
    | If (cond, t, f) ->
      incr branches;
      if cond r <> 0 then begin
        add c node b.slot 1;
        cur := t
      end
      else begin
        add c node (b.slot + 1) 1;
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
      add c node (b.slot + !k) 1;
      cur := if !k < n then targets.(!k) else default
    | Return value -> (
      let value = value r in
      add c node b.slot 1;
      match !stack with
      | [] ->
        return_value := value;
        running := false
      | fr :: rest ->
        stack := rest;
        (* After the return event, the intra-function arc from the call
           block to its continuation, taken when the call returns. *)
        add c fr.ret_context fr.ret_slot 1;
        regs := fr.caller_regs;
        ctx := fr.ret_context;
        if fr.ret_dst >= 0 then fr.caller_regs.(fr.ret_dst) <- value;
        cur := fr.ret_to)
    | Invoke k ->
      incr calls;
      if k.callee_fid < 0 then raise (Prog.Unknown_function k.name);
      add c node (b.slot + 1) 1;
      let callee_regs = Array.make k.frame_size 0 in
      for i = 0 to Array.length k.args - 1 do
        callee_regs.(i) <- k.args.(i) r
      done;
      let callee = enter c node b.label in
      callee.calls <- callee.calls + 1;
      stack :=
        {
          caller_regs = r;
          ret_dst = k.dst;
          ret_to = k.ret_to;
          ret_slot = b.slot;
          ret_context = node;
        }
        :: !stack;
      regs := callee_regs;
      ctx := callee;
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
