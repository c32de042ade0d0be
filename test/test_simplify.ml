(* CFG cleanup tests: semantics preservation and the individual
   simplifications. *)

open Ir.Ast.Dsl
open Helpers

let behavior_preserved name prog inputs =
  let p = Ir.Lower.program prog in
  let s = Ir.Simplify.program p in
  Ir.Check.program s;
  List.iter
    (fun input ->
      let before = Vm.Interp.run p input in
      let after = Vm.Interp.run s input in
      Alcotest.(check int) (name ^ ": return") before.Vm.Interp.return_value
        after.Vm.Interp.return_value;
      Alcotest.(check string) (name ^ ": output")
        (Vm.Io.output before.Vm.Interp.io 0)
        (Vm.Io.output after.Vm.Interp.io 0))
    inputs;
  (p, s)

let shrinks_code () =
  (* A while(1) loop with immediate conditions plus constant arithmetic:
     folding + threading must shrink the code without changing results. *)
  let prog =
    main_prog
      [
        decl "acc" (i 0);
        decl "k" (i 0);
        while_ (i 1)
          [
            when_ (v "k" ==% i 10) [ break_ ];
            set "acc" (v "acc" +% ((i 3 *% i 4) -% i 2));
            incr_ "k";
          ];
        ret (v "acc");
      ]
  in
  let p, s = behavior_preserved "const loop" prog [ Vm.Io.input [] ] in
  Alcotest.(check bool) "code shrank" true
    (Ir.Prog.total_instr_count s < Ir.Prog.total_instr_count p);
  Alcotest.(check int) "value" 100
    (Vm.Interp.run s (Vm.Io.input [])).Vm.Interp.return_value

(* One function simplified on its own, as the whole-program pass does
   for each of its functions. *)
let simplify_func (f : Ir.Prog.func) =
  let p = Ir.Simplify.program (Ir.Prog.make ~entry:f.Ir.Prog.name [ f ]) in
  p.Ir.Prog.funcs.(0)

let folds_constants () =
  let f =
    {
      Ir.Prog.name = "f";
      nparams = 0;
      nregs = 2;
      blocks =
        [|
          Ir.Cfg.mk_block
            [| Ir.Insn.Bin (Add, 0, Imm 2, Imm 3); Ir.Insn.Bin (Div, 1, Imm 7, Imm 0) |]
            (Ir.Cfg.Ret (Some (Reg 0)));
        |];
    }
  in
  let s = simplify_func f in
  (match s.Ir.Prog.blocks.(0).Ir.Cfg.insns.(0) with
  | Ir.Insn.Mov (0, Imm 5) -> ()
  | _ -> Alcotest.fail "2+3 not folded");
  (* Division by a zero immediate must NOT fold (it faults at runtime). *)
  match s.Ir.Prog.blocks.(0).Ir.Cfg.insns.(1) with
  | Ir.Insn.Bin (Div, 1, Imm 7, Imm 0) -> ()
  | _ -> Alcotest.fail "7/0 was folded away"

let threads_jumps () =
  (* entry -> forward -> forward -> ret: both forwarders vanish. *)
  let f =
    {
      Ir.Prog.name = "f";
      nparams = 0;
      nregs = 1;
      blocks =
        [|
          Ir.Cfg.mk_block [||] (Ir.Cfg.Jump 1);
          Ir.Cfg.mk_block [||] (Ir.Cfg.Jump 2);
          Ir.Cfg.mk_block [||] (Ir.Cfg.Jump 3);
          Ir.Cfg.mk_block [||] (Ir.Cfg.Ret None);
        |];
    }
  in
  let s = simplify_func f in
  Alcotest.(check int) "two blocks remain" 2 (Array.length s.Ir.Prog.blocks)

let jump_cycle_safe () =
  (* A cycle of empty forwarders must not hang the threader. *)
  let f =
    {
      Ir.Prog.name = "f";
      nparams = 0;
      nregs = 1;
      blocks =
        [|
          Ir.Cfg.mk_block [||] (Ir.Cfg.Jump 1);
          Ir.Cfg.mk_block [||] (Ir.Cfg.Jump 2);
          Ir.Cfg.mk_block [||] (Ir.Cfg.Jump 1);
        |];
    }
  in
  let s = simplify_func f in
  Ir.Check.program
    (Ir.Prog.make ~entry:"f" [ s ])

let sweeps_unreachable () =
  (* Dead statements after return become unreachable blocks; the sweep
     removes them while reachable-but-unexecuted code stays. *)
  let prog =
    main_prog
      [
        decl "x" (i 1);
        when_ (v "x" ==% i 99) [ ret (i 7) ]; (* reachable, never runs *)
        ret (v "x");
        set "x" (i 5); (* dead code after return *)
        ret (v "x");
      ]
  in
  let p = Ir.Lower.program prog in
  let s = Ir.Simplify.program p in
  let f = s.Ir.Prog.funcs.(s.Ir.Prog.entry) in
  let fp = p.Ir.Prog.funcs.(p.Ir.Prog.entry) in
  Alcotest.(check bool) "blocks removed" true
    (Array.length f.Ir.Prog.blocks < Array.length fp.Ir.Prog.blocks);
  (* the cold return path survives *)
  let has_ret7 =
    Array.exists
      (fun b ->
        Array.exists
          (function Ir.Insn.Mov (_, Imm 7) -> true | _ -> false)
          b.Ir.Cfg.insns
        || match b.Ir.Cfg.term with Ir.Cfg.Ret (Some (Imm 7)) -> true | _ -> false)
      f.Ir.Prog.blocks
  in
  Alcotest.(check bool) "cold path survives" true has_ret7;
  Alcotest.(check int) "semantics" 1
    (Vm.Interp.run s (Vm.Io.input [])).Vm.Interp.return_value

let workloads_preserved () =
  List.iter
    (fun (name, input) ->
      let b = Workloads.Registry.find name in
      ignore (behavior_preserved name (Workloads.Bench.ast b) [ input ]))
    [
      ("wc", Vm.Io.input [ "several short words\nhere\n" ]);
      ("yacc", Vm.Io.input [ "a=3;a*a+1;" ]);
      ("lex", Vm.Io.input [ "int n = 0x1f; // done\n" ]);
      ("cccp", Vm.Io.input [ "#define X 4\n#if X > 1\nX ok\n#endif\n"; "" ]);
    ]

let pipeline_integration () =
  (* The cleanups shrink code, the pipeline lays out the cleaned program,
     and its layout stays valid. *)
  let b = Workloads.Registry.find "wc" in
  let inputs = [ Vm.Io.input [ "one two\n" ] ] in
  let prog = Workloads.Bench.program b in
  let simplified = Ir.Simplify.program prog in
  let p = Placement.Pipeline.run prog ~inputs in
  Alcotest.(check bool) "simplified is smaller" true
    (Ir.Prog.total_instr_count simplified < Ir.Prog.total_instr_count prog);
  Alcotest.(check int) "pipeline starts from the simplified program"
    (Ir.Prog.total_instr_count simplified)
    (Ir.Prog.total_instr_count p.Placement.Pipeline.original);
  Alcotest.(check bool) "maps disjoint" true
    (Helpers.is_disjoint p.Placement.Pipeline.optimized)

let suite =
  [
    Alcotest.test_case "shrinks code, keeps semantics" `Quick shrinks_code;
    Alcotest.test_case "folds constants, keeps faults" `Quick folds_constants;
    Alcotest.test_case "threads jumps" `Quick threads_jumps;
    Alcotest.test_case "jump cycles safe" `Quick jump_cycle_safe;
    Alcotest.test_case "sweeps unreachable only" `Quick sweeps_unreachable;
    Alcotest.test_case "workload semantics preserved" `Quick workloads_preserved;
    Alcotest.test_case "pipeline integration" `Quick pipeline_integration;
  ]
