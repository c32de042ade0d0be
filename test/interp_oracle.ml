(* Reference interpreter: the matching loop the VM used before it became
   translate-then-run.  Every executed instruction is matched on its
   [Insn.t] constructor and every operand on [Reg]/[Imm]; every terminator
   is matched on its [Cfg.term] and its labels looked up in the current
   function.  It counts into the same dense per-run arrays and calls
   [block_sink] at the same points, and it raises the VM's own exceptions
   ([Vm.Interp.Fault], [Vm.Memory.Fault], [Ir.Prog.Unknown_function]) with
   the same messages, so tests can compare the two engines run for run:
   return value, dynamic totals, outputs, per-block counts, arc and call
   order, the block stream, and every fault. *)

open Ir

let fault fmt = Fmt.kstr (fun s -> raise (Vm.Interp.Fault s)) fmt

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
  | Cfg.Ret _ -> invalid_arg "Interp_oracle.slot_target: Ret has no successors"

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
  io : Vm.Io.t;
  counts : counts;
}

type frame = {
  caller_fid : int;
  caller_base : int; (* global index of the caller's block 0 *)
  caller_regs : int array;
  ret_dst : int; (* destination register, -1 for none *)
  ret_label : Cfg.label; (* continuation block in the caller *)
  ret_slot : int; (* global slot of the call block's continuation arc *)
}

type state = {
  prog : Prog.program;
  mem : Vm.Memory.t;
  io : Vm.Io.t;
  mutable heap : int;
  mutable fuel : int;
  mutable insns : int;
  mutable blocks : int;
  mutable calls : int;
  mutable branches : int;
}

let ev regs = function Insn.Reg r -> regs.(r) | Insn.Imm n -> n

let exec_intrin st regs intr dst args =
  let value =
    match (intr, args) with
    | Insn.Getc, [ s ] -> Vm.Io.getc st.io (ev regs s)
    | Insn.Putc, [ s; b ] ->
      Vm.Io.putc st.io (ev regs s) (ev regs b);
      0
    | Insn.Stream_len, [ s ] -> Vm.Io.stream_len st.io (ev regs s)
    | Insn.Arg, [ idx ] -> Vm.Io.arg st.io (ev regs idx)
    | Insn.Alloc, [ n ] ->
      let n = ev regs n in
      if n < 0 then fault "alloc of negative size %d" n;
      let addr = st.heap in
      st.heap <- (st.heap + n + 3) land lnot 3;
      (* Touch the last byte so the memory grows eagerly. *)
      if n > 0 then Vm.Memory.write8 st.mem (addr + n - 1) 0;
      addr
    | Insn.Abort, _ -> fault "abort intrinsic executed"
    | (Insn.Getc | Insn.Putc | Insn.Stream_len | Insn.Arg | Insn.Alloc), _ ->
      fault "intrinsic %s: wrong arity" (Insn.intrinsic_name intr)
  in
  match dst with Some r -> regs.(r) <- value | None -> ()

let exec_insn st regs insn =
  match insn with
  | Insn.Mov (d, o) -> regs.(d) <- ev regs o
  | Insn.Bin (op, d, a, b) ->
    let a = ev regs a and b = ev regs b in
    if (op = Insn.Div || op = Insn.Rem) && b = 0 then
      fault "division by zero";
    regs.(d) <- Insn.eval_binop op a b
  | Insn.Load8 (d, b, o) -> regs.(d) <- Vm.Memory.read8 st.mem (ev regs b + ev regs o)
  | Insn.Load32 (d, b, o) ->
    regs.(d) <- Vm.Memory.read32 st.mem (ev regs b + ev regs o)
  | Insn.Store8 (b, o, value) ->
    Vm.Memory.write8 st.mem (ev regs b + ev regs o) (ev regs value)
  | Insn.Store32 (b, o, value) ->
    Vm.Memory.write32 st.mem (ev regs b + ev regs o) (ev regs value)
  | Insn.Intrin (intr, dst, args) -> exec_intrin st regs intr dst args

let run ?block_sink ?(fuel = 2_000_000_000) (prog : Prog.program)
    (input : Vm.Io.input) : result =
  let io = Vm.Io.of_input input in
  let c = counts_of prog in
  let st =
    {
      prog;
      mem = Vm.Memory.of_program prog;
      io;
      heap = prog.heap_base;
      fuel;
      insns = 0;
      blocks = 0;
      calls = 0;
      branches = 0;
    }
  in
  (* The explicit call stack; returning from the entry function ends the
     program. *)
  let stack = ref [] in
  let fid = ref prog.entry in
  let base = ref c.block_base.(!fid) in
  let func = ref prog.funcs.(!fid) in
  let regs = ref (Array.make !func.nregs 0) in
  let label = ref 0 in
  let return_value = ref 0 in
  let running = ref true in
  while !running do
    let b = !func.blocks.(!label) in
    let g = !base + !label in
    c.blocks.(g) <- c.blocks.(g) + 1;
    (match block_sink with None -> () | Some sink -> sink !fid !label);
    let cost = Cfg.instr_count b in
    st.insns <- st.insns + cost;
    st.blocks <- st.blocks + 1;
    st.fuel <- st.fuel - cost;
    if st.fuel < 0 then fault "out of fuel (%d instructions executed)" st.insns;
    let body = b.Cfg.insns in
    for i = 0 to Array.length body - 1 do
      exec_insn st !regs (Array.unsafe_get body i)
    done;
    match b.Cfg.term with
    | Cfg.Jump l ->
      st.branches <- st.branches + 1;
      take c c.slot_base.(g);
      label := l
    | Cfg.Br (o, t, f) ->
      st.branches <- st.branches + 1;
      if ev !regs o <> 0 then begin
        take c c.slot_base.(g);
        label := t
      end
      else begin
        take c (c.slot_base.(g) + 1);
        label := f
      end
    | Cfg.Switch (o, cases, default) ->
      st.branches <- st.branches + 1;
      let scrutinee = ev !regs o in
      let n = Array.length cases in
      let k = ref 0 in
      while !k < n && fst cases.(!k) <> scrutinee do
        incr k
      done;
      take c (c.slot_base.(g) + !k);
      label := if !k < n then snd cases.(!k) else default
    | Cfg.Ret o -> (
      let value = match o with Some o -> ev !regs o | None -> 0 in
      match !stack with
      | [] ->
        return_value := value;
        running := false
      | fr :: rest ->
        stack := rest;
        (* The intra-function arc from the call block to its return
           continuation is taken when the call returns. *)
        take c fr.ret_slot;
        fid := fr.caller_fid;
        base := fr.caller_base;
        func := prog.funcs.(!fid);
        regs := fr.caller_regs;
        if fr.ret_dst >= 0 then !regs.(fr.ret_dst) <- value;
        label := fr.ret_label)
    | Cfg.Call { callee; args; dst; ret_to } ->
      st.calls <- st.calls + 1;
      let callee_fid = c.callee.(g) in
      if callee_fid < 0 then raise (Prog.Unknown_function callee);
      if c.blocks.(g) = 1 then begin
        c.called.(c.n_called) <- g;
        c.n_called <- c.n_called + 1
      end;
      let callee_func = prog.funcs.(callee_fid) in
      let callee_regs = Array.make callee_func.nregs 0 in
      List.iteri
        (fun i o ->
          if i < callee_func.nparams then callee_regs.(i) <- ev !regs o)
        args;
      stack :=
        {
          caller_fid = !fid;
          caller_base = !base;
          caller_regs = !regs;
          ret_dst = (match dst with Some r -> r | None -> -1);
          ret_label = ret_to;
          ret_slot = c.slot_base.(g);
        }
        :: !stack;
      fid := callee_fid;
      base := c.block_base.(callee_fid);
      func := callee_func;
      regs := callee_regs;
      label := 0
  done;
  {
    return_value = !return_value;
    dyn_insns = st.insns;
    dyn_blocks = st.blocks;
    dyn_calls = st.calls;
    dyn_branches = st.branches;
    io;
    counts = c;
  }
