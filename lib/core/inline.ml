(* Function inline expansion (paper step 2).

   Call sites with high dynamic execution count are replaced with the
   callee body, turning the important inter-function control transfers
   into intra-function transfers.  The paper reports this both enlarges
   function bodies (feeding trace selection) and removes potential cache
   mapping conflicts between interacting functions.

   Mechanics: the callee's blocks are appended to the caller (labels and
   registers renamed by a constant offset), the call block's terminator
   becomes argument moves plus a jump to the inlined entry, and every
   callee [Ret] becomes a result move plus a jump to the original return
   continuation.  Function indices never change, so profile-derived site
   identities stay valid while a round of inlining proceeds.

   Counts: the VM runs once, over the original program.  An inlined
   program executes exactly the original's path, so a call block in an
   inlined copy executes exactly as often as its original call site does
   in the calling context the copy stands for.  Each round therefore
   sums its [site_counts] and [dyn_calls] from the profile's
   calling-context tree ([derive]) instead of re-running the program.
   The splice layout is the provenance record: a copy's blocks keep
   their order from its entry label, and the spliced call block jumps
   to that entry. *)

open Ir

type config = {
  min_call_count : int; (* a site must execute at least this often *)
  min_call_fraction : float; (* ... or carry this share of all calls *)
  max_callee_insns : int; (* never inline callees larger than this *)
  max_program_growth : float; (* cap on total static code growth *)
  rounds : int; (* repeat on the inlined program, for nested inlining *)
}

(* Defaults tuned so static growth lands in the paper's observed 0-34%
   range while still eliminating the bulk of dynamic calls. *)
let default_config =
  {
    min_call_count = 100;
    min_call_fraction = 0.004;
    max_callee_insns = 800;
    max_program_growth = 1.35;
    rounds = 3;
  }

type report = {
  sites_inlined : int;
  insns_before : int;
  insns_after : int;
  rounds_used : int;
}

let code_increase r =
  if r.insns_before = 0 then 0.
  else float_of_int (r.insns_after - r.insns_before) /. float_of_int r.insns_before

(* Splice [callee] into [caller] at [site], assuming the block ends in a
   call to that callee.  Returns the updated caller. *)
let splice (caller : Prog.func) site (callee : Prog.func) : Prog.func =
  let call_block = caller.blocks.(site) in
  match call_block.Cfg.term with
  | Cfg.Call { args; dst; ret_to; callee = callee_name } ->
    if callee_name <> callee.name then
      Diag.error ~stage:Diag.Structure ~func:caller.name ~block:site
        "inline splice: call targets %s, not %s" callee_name callee.name;
    let base_label = Array.length caller.blocks in
    let base_reg = caller.nregs in
    let remap_l l = base_label + l in
    let remap_r r = base_reg + r in
    let inlined =
      Array.map
        (fun (b : Cfg.block) ->
          let insns = Array.map (Insn.map_regs remap_r) b.Cfg.insns in
          match b.Cfg.term with
          | Cfg.Ret op ->
            let op = Option.map (Insn.map_operand_regs remap_r) op in
            let extra =
              match (dst, op) with
              | Some d, Some o -> [| Insn.Mov (d, o) |]
              | Some d, None -> [| Insn.Mov (d, Insn.Imm 0) |]
              | None, _ -> [||]
            in
            Cfg.mk_block (Array.append insns extra) (Cfg.Jump ret_to)
          | t ->
            Cfg.mk_block insns
              (Cfg.map_term_labels remap_l (Cfg.map_term_regs remap_r t)))
        callee.blocks
    in
    (* Move the actual arguments into the renamed parameter registers and
       fall into the inlined entry block.  Extra arguments beyond the
       parameter count are dropped, mirroring the interpreter. *)
    let arg_movs =
      List.filteri (fun idx _ -> idx < callee.nparams) args
      |> List.mapi (fun idx o -> Insn.Mov (base_reg + idx, o))
      |> Array.of_list
    in
    (* Preserve any size override on the call block (it may be the
       caller's entry block carrying prologue padding), extended by the
       argument moves just added. *)
    let call_block' =
      Cfg.mk_block
        ?size_override:
          (Option.map
             (fun n -> n + Array.length arg_movs)
             call_block.Cfg.size_override)
        (Array.append call_block.Cfg.insns arg_movs)
        (Cfg.Jump base_label)
    in
    let blocks = Array.append (Array.copy caller.blocks) inlined in
    blocks.(site) <- call_block';
    { caller with nregs = base_reg + callee.nregs; blocks }
  | Cfg.Jump _ | Cfg.Br _ | Cfg.Switch _ | Cfg.Ret _ ->
    Diag.error ~stage:Diag.Structure ~func:caller.name ~block:site
      "inline splice: block does not end in a call to %s" callee.name

type counts = {
  site_counts : (int * Cfg.label * int, int) Hashtbl.t;
  dyn_calls : int;
}

(* A round's counts, summed from the calling-context tree of the
   profiled program.  [prog] is that program after any number of
   splices, and every block of it is still where [splice] put it: an
   inlined copy of a function keeps its blocks in order from the copy's
   entry label, and a spliced call block jumps to that entry.  So the
   walk's state is a real frame (a function of [prog]) and the label
   where the code of the current context's function starts in it: 0 in
   the function's own body, the entry of an inlined copy otherwise.  A
   context's call from original block [site] is then block [base + site]
   of the frame.  If that block still calls, the call is real and its
   callee opens a new frame; if it was spliced, the callee's code runs
   in the same frame, from the copy its jump enters. *)
let derive (profile : Vm.Profile.t) (prog : Prog.program) : counts =
  let site_counts = Hashtbl.create 64 in
  let dyn_calls = ref 0 in
  let rec walk frame base (node : Vm.Interp.context) =
    Array.iter
      (function
        | None -> ()
        | Some (c : Vm.Interp.context) -> (
          let block = base + c.site in
          match prog.Prog.funcs.(frame).blocks.(block).Cfg.term with
          | Cfg.Call _ ->
            let key = (frame, block, c.fid) in
            let n = Option.value ~default:0 (Hashtbl.find_opt site_counts key) in
            Hashtbl.replace site_counts key (n + c.calls);
            dyn_calls := !dyn_calls + c.calls;
            walk c.fid 0 c
          | Cfg.Jump entry -> walk frame entry c
          | Cfg.Br _ | Cfg.Switch _ | Cfg.Ret _ ->
            Diag.error ~stage:Diag.Structure
              ~func:prog.Prog.funcs.(frame).name ~block
              "inline counts: block is neither a call nor a spliced call"))
      node.callees
  in
  walk prog.Prog.entry 0 profile.Vm.Profile.contexts;
  { site_counts; dyn_calls = !dyn_calls }

(* One pass over the weighted call graph: inline the qualifying sites in
   decreasing dynamic-count order, respecting size and recursion limits.
   [budget] bounds the program's total instruction count. *)
let expand_once config ~budget (prog : Prog.program) (counts : counts) :
    Prog.program * int =
  let threshold =
    max config.min_call_count
      (int_of_float (config.min_call_fraction *. float_of_int counts.dyn_calls))
  in
  let sites =
    Hashtbl.fold
      (fun (caller, block, callee) count acc ->
        if count >= threshold then (count, caller, block, callee) :: acc
        else acc)
      counts.site_counts []
    |> List.sort (fun (c1, a1, b1, d1) (c2, a2, b2, d2) ->
           match compare c2 c1 with
           | 0 -> compare (a1, b1, d1) (a2, b2, d2)
           | c -> c)
  in
  let prog = ref prog in
  let graph = ref (Callgraph.build !prog) in
  let total_insns = ref (Prog.total_instr_count !prog) in
  let inlined = ref 0 in
  List.iter
    (fun (_count, caller_fid, block, callee_fid) ->
      let caller = !prog.Prog.funcs.(caller_fid) in
      let callee = !prog.Prog.funcs.(callee_fid) in
      let callee_size = Prog.func_instr_count callee in
      let still_a_call =
        match caller.blocks.(block).Cfg.term with
        | Cfg.Call { callee = name; _ } -> name = callee.name
        | _ -> false
      in
      if
        still_a_call && caller_fid <> callee_fid
        && callee_size <= config.max_callee_insns
        && !total_insns + callee_size <= budget
        && not (Callgraph.in_cycle_with !graph ~src:caller_fid ~dst:callee_fid)
      then begin
        let caller' = splice caller block callee in
        let funcs = Array.copy !prog.Prog.funcs in
        funcs.(caller_fid) <- caller';
        prog := Prog.with_funcs !prog funcs;
        (* Splicing may add new caller->X edges; refresh for recursion
           checks. *)
        graph := Callgraph.build !prog;
        total_insns := Prog.total_instr_count !prog;
        incr inlined
      end)
    sites;
  (!prog, !inlined)

(* Full expansion: count, inline, and repeat so that calls inside
   freshly inlined bodies can be expanded too (paper reduces dynamic
   calls to ~1% of control transfers).  [counts] gives each round's
   call-site counts for the program that round starts from. *)
let rounds ?(config = default_config) (prog : Prog.program)
    (counts : Prog.program -> counts) : Prog.program * report =
  let insns_before = Prog.total_instr_count prog in
  let budget =
    int_of_float (config.max_program_growth *. float_of_int insns_before)
  in
  let rec go round prog sites =
    if round >= config.rounds then (prog, sites, round)
    else begin
      let prog', n = expand_once config ~budget prog (counts prog) in
      if n = 0 then (prog', sites, round) else go (round + 1) prog' (sites + n)
    end
  in
  let prog', sites_inlined, rounds_used = go 0 prog 0 in
  Obs.Metrics.incr ~by:sites_inlined
    (Obs.Metrics.counter "pipeline.sites_inlined"
       ~help:"call sites expanded by inline rounds");
  ( prog',
    {
      sites_inlined;
      insns_before;
      insns_after = Prog.total_instr_count prog';
      rounds_used;
    } )

let expand ?config ~(profile : Vm.Profile.t) prog =
  if profile.prog.Prog.funcs != prog.Prog.funcs
     && profile.prog.Prog.funcs <> prog.Prog.funcs
  then invalid_arg "Inline.expand: the profile is of another program";
  rounds ?config prog (derive profile)
