(* Structural validation of lowered programs.  Run after lowering and
   after every program transformation (inlining, scaling) in tests, and
   by the pipeline validator (Placement.Validate) and the differential
   fuzzer.

   [diags] scans the whole program and reports every violation as a
   structured diagnostic; [program] raises the first as [Diag.Fail]. *)

let check_func (p : Prog.program) (f : Prog.func) acc =
  let acc = ref acc in
  let report ?block fmt =
    Fmt.kstr
      (fun message ->
        acc :=
          Diag.make ~stage:Diag.Structure ~func:f.name ?block "%s" message
          :: !acc)
      fmt
  in
  let n = Array.length f.blocks in
  if n = 0 then report "no blocks";
  if f.nparams > f.nregs then
    report "%d params but only %d regs" f.nparams f.nregs;
  Array.iteri
    (fun l b ->
      let check_label where l' =
        if l' < 0 || l' >= n then
          report ~block:l "%s references label %d outside [0,%d)" where l' n
      in
      List.iter (check_label "terminator") (Cfg.successors b);
      (match b.Cfg.term with
      | Call { callee; ret_to; _ } ->
        check_label "call continuation" ret_to;
        if not (Hashtbl.mem p.by_name callee) then
          report ~block:l "calls unknown function %s" callee
      | Jump _ | Br _ | Switch _ | Ret _ -> ());
      let max_reg = Cfg.max_reg_of_block b in
      if max_reg >= f.nregs then
        report ~block:l "uses register %d >= nregs %d" max_reg f.nregs;
      if Cfg.instr_count b < 1 then report ~block:l "has size < 1")
    f.blocks;
  !acc

let check_data (p : Prog.program) acc =
  List.fold_left
    (fun acc (addr, image) ->
      let acc =
        if addr < 0 then
          Diag.make ~stage:Diag.Structure "data image at negative address %d"
            addr
          :: acc
        else acc
      in
      if addr + Bytes.length image > p.heap_base then
        Diag.make ~stage:Diag.Structure
          "data image at %d overruns heap base %d" addr p.heap_base
        :: acc
      else acc)
    acc p.data

(* Every structural violation in the program, in discovery order. *)
let diags (p : Prog.program) : Diag.t list =
  let acc = ref [] in
  if Array.length p.funcs = 0 then
    acc := [ Diag.make ~stage:Diag.Structure "program has no functions" ];
  if p.entry < 0 || p.entry >= Array.length p.funcs then
    acc :=
      Diag.make ~stage:Diag.Structure "entry index %d out of range [0,%d)"
        p.entry (Array.length p.funcs)
      :: !acc;
  Array.iter (fun f -> acc := check_func p f !acc) p.funcs;
  acc := check_data p !acc;
  List.rev !acc

let program (p : Prog.program) = Diag.raise_first (diags p)
