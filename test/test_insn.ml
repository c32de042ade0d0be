(* Unit tests for the instruction set: operator semantics, register
   accounting, register renaming. *)

open Ir

let check_binop () =
  let cases =
    [
      (Insn.Add, 3, 4, 7);
      (Insn.Sub, 3, 4, -1);
      (Insn.Mul, 3, 4, 12);
      (Insn.Div, 17, 5, 3);
      (Insn.Div, -17, 5, -3); (* C-style truncation toward zero *)
      (Insn.Rem, 17, 5, 2);
      (Insn.Rem, -17, 5, -2);
      (Insn.And, 0b1100, 0b1010, 0b1000);
      (Insn.Or, 0b1100, 0b1010, 0b1110);
      (Insn.Xor, 0b1100, 0b1010, 0b0110);
      (Insn.Shl, 3, 4, 48);
      (Insn.Shr, 48, 4, 3);
      (Insn.Shr, -16, 2, -4); (* arithmetic shift *)
      (Insn.Lt, 3, 4, 1);
      (Insn.Lt, 4, 3, 0);
      (Insn.Le, 4, 4, 1);
      (Insn.Gt, 4, 3, 1);
      (Insn.Ge, 3, 4, 0);
      (Insn.Eq, 5, 5, 1);
      (Insn.Ne, 5, 5, 0);
    ]
  in
  List.iter
    (fun (op, a, b, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "%s %d %d" (Insn.binop_name op) a b)
        expected
        (Insn.eval_binop op a b))
    cases

let check_max_reg () =
  Alcotest.(check int) "mov" 5 (Insn.max_reg (Mov (5, Imm 3)));
  Alcotest.(check int) "bin" 9 (Insn.max_reg (Bin (Add, 2, Reg 9, Reg 1)));
  Alcotest.(check int) "store imm" (-1)
    (Insn.max_reg (Store8 (Imm 0, Imm 1, Imm 2)));
  Alcotest.(check int) "intrin none" (-1) (Insn.max_reg (Intrin (Abort, None, [])));
  Alcotest.(check int) "intrin" 7
    (Insn.max_reg (Intrin (Getc, Some 4, [ Reg 7 ])))

let check_map_regs () =
  let shift r = r + 10 in
  (match Insn.map_regs shift (Bin (Add, 1, Reg 2, Imm 3)) with
  | Bin (Add, 11, Reg 12, Imm 3) -> ()
  | _ -> Alcotest.fail "bin rename");
  (match Insn.map_regs shift (Intrin (Putc, Some 0, [ Imm 1; Reg 5 ])) with
  | Intrin (Putc, Some 10, [ Imm 1; Reg 15 ]) -> ()
  | _ -> Alcotest.fail "intrin rename");
  match Insn.map_regs shift (Store32 (Reg 0, Imm 4, Reg 1)) with
  | Store32 (Reg 10, Imm 4, Reg 11) -> ()
  | _ -> Alcotest.fail "store rename"

let div_by_zero () =
  Alcotest.check_raises "div" Division_by_zero (fun () ->
      ignore (Insn.eval_binop Div 1 0));
  Alcotest.check_raises "rem" Division_by_zero (fun () ->
      ignore (Insn.eval_binop Rem 1 0))

let suite =
  [
    Alcotest.test_case "binop semantics" `Quick check_binop;
    Alcotest.test_case "max_reg" `Quick check_max_reg;
    Alcotest.test_case "map_regs" `Quick check_map_regs;
    Alcotest.test_case "division by zero raises" `Quick div_by_zero;
  ]
