(* Lowering tests: every control construct is compiled to a CFG whose
   execution matches C semantics, and the structural invariants hold. *)

open Ir.Ast.Dsl
open Helpers

let check_ret name expected body =
  Alcotest.(check int) name expected (ret_of (main_prog body))

let arithmetic () =
  check_ret "arith" 17 [ ret ((i 3 *% i 5) +% (i 10 /% i 5)) ];
  check_ret "precedence is explicit" 16 [ ret ((i 3 +% i 5) *% i 2) ];
  check_ret "neg" (-7) [ ret (neg (i 7)) ];
  check_ret "not0" 1 [ ret (not_ (i 0)) ];
  check_ret "not5" 0 [ ret (not_ (i 5)) ]

let if_else () =
  check_ret "then" 1 [ if_ (i 3 <% i 5) [ ret (i 1) ] [ ret (i 2) ] ];
  check_ret "else" 2 [ if_ (i 5 <% i 3) [ ret (i 1) ] [ ret (i 2) ] ];
  check_ret "no else, fallthrough" 9
    [ decl "x" (i 9); when_ (i 0) [ set "x" (i 1) ]; ret (v "x") ];
  check_ret "nested" 4
    [
      decl "x" (i 2);
      if_ (v "x" ==% i 2)
        [ if_ (v "x" >% i 1) [ ret (i 4) ] [ ret (i 3) ] ]
        [ ret (i 5) ];
    ]

let loops () =
  check_ret "while sum" 45
    [
      decl "s" (i 0);
      decl "k" (i 0);
      while_ (v "k" <% i 10) [ set "s" (v "s" +% v "k"); incr_ "k" ];
      ret (v "s");
    ];
  check_ret "while never entered" 0
    [ decl "s" (i 0); while_ (i 0) [ set "s" (i 99) ]; ret (v "s") ];
  check_ret "do_while runs once" 99
    [ decl "s" (i 0); do_while [ set "s" (i 99) ] (i 0); ret (v "s") ];
  check_ret "for" 285
    [
      decl "s" (i 0);
      for_
        [ decl "k" (i 0) ]
        (v "k" <% i 10)
        [ incr_ "k" ]
        [ set "s" (v "s" +% (v "k" *% v "k")) ];
      ret (v "s");
    ];
  check_ret "break" 5
    [
      decl "k" (i 0);
      while_ (i 1) [ when_ (v "k" ==% i 5) [ break_ ]; incr_ "k" ];
      ret (v "k");
    ];
  check_ret "continue skips evens" 25
    [
      decl "s" (i 0);
      for_
        [ decl "k" (i 0) ]
        (v "k" <% i 10)
        [ incr_ "k" ]
        [ when_ ((v "k" %% i 2) ==% i 0) [ continue_ ]; set "s" (v "s" +% v "k") ];
      ret (v "s");
    ];
  check_ret "nested break hits inner loop" 30
    [
      decl "s" (i 0);
      for_
        [ decl "a" (i 0) ]
        (v "a" <% i 3)
        [ incr_ "a" ]
        [
          for_
            [ decl "b" (i 0) ]
            (i 1)
            [ incr_ "b" ]
            [ when_ (v "b" ==% i 5) [ break_ ]; set "s" (v "s" +% v "b") ];
        ];
      ret (v "s");
    ]

let short_circuit () =
  (* The right operand must not be evaluated: make it a trap. *)
  let trap = ld8 (i 0) in (* null deref *)
  check_ret "and shortcut" 0 [ ret ((i 0) &&% trap) ];
  check_ret "or shortcut" 1 [ ret ((i 1) ||% trap) ];
  check_ret "and both" 1 [ ret ((i 2) &&% (i 3)) ];
  check_ret "and normalizes" 1 [ ret ((i 7) &&% (i 9)) ];
  check_ret "or second" 1 [ ret ((i 0) ||% (i 4)) ];
  check_ret "or both zero" 0 [ ret ((i 0) ||% (i 0)) ];
  check_ret "ternary true" 10 [ ret (Ir.Ast.Cond (i 1, i 10, i 20)) ];
  check_ret "ternary false" 20 [ ret (Ir.Ast.Cond (i 0, i 10, i 20)) ]

let switch_semantics () =
  let prog value =
    main_prog
      [
        decl "r" (i 0);
        switch (i value)
          [
            ([ 1 ], [ set "r" (i 100); break_ ]);
            ([ 2; 3 ], [ set "r" (i 200); break_ ]);
            ([ 4 ], [ set "r" (v "r" +% i 1) ]); (* falls through to default *)
          ]
          [ set "r" (v "r" +% i 1000) ];
        ret (v "r");
      ]
  in
  Alcotest.(check int) "case 1" 100 (ret_of (prog 1));
  Alcotest.(check int) "case 2" 200 (ret_of (prog 2));
  Alcotest.(check int) "case 3 shares arm" 200 (ret_of (prog 3));
  Alcotest.(check int) "case 4 falls through" 1001 (ret_of (prog 4));
  Alcotest.(check int) "default" 1000 (ret_of (prog 77))

let calls_and_recursion () =
  Alcotest.(check int) "loop of calls" 90 (ret_of caller_prog);
  let fib =
    {
      Ir.Ast.globals = [];
      funcs =
        [
          func "fib" [ "n" ]
            [
              when_ (v "n" <% i 2) [ ret (v "n") ];
              ret (call "fib" [ v "n" -% i 1 ] +% call "fib" [ v "n" -% i 2 ]);
            ];
          func "main" [] [ ret (call "fib" [ i 15 ]) ];
        ];
      entry = "main";
    }
  in
  Alcotest.(check int) "fib 15" 610 (ret_of fib);
  let g =
    { Ir.Ast.globals = []; funcs = [ gcd_func; func "main" []
        [ ret (call "gcd" [ i 1071; i 462 ]) ] ]; entry = "main" }
  in
  Alcotest.(check int) "gcd" 21 (ret_of g)

let globals_and_memory () =
  let prog =
    {
      Ir.Ast.globals =
        [
          ("word_tbl", Ir.Ast.Gwords [| 11; 22; 33 |]);
          ("msg", Ir.Ast.Gstring "hi");
          ("buf", Ir.Ast.Gzero 16);
        ];
      funcs =
        [
          func "main" []
            [
              st32 (g "buf") (ld32 (g "word_tbl" +% i 4));
              st8 (g "buf" +% i 4) (ld8 (g "msg" +% i 1));
              ret (ld32 (g "buf") +% ld8 (g "buf" +% i 4));
            ];
        ];
      entry = "main";
    }
  in
  Alcotest.(check int) "global round trip" (22 + Char.code 'i') (ret_of prog)

let scoping () =
  check_ret "shadowing in branches" 5
    [
      decl "x" (i 5);
      when_ (i 1) [ decl "x" (i 9); set "x" (v "x" +% i 1) ];
      ret (v "x");
    ];
  (* Unbound variables are a structured lowering diagnostic carrying the
     function and block of the offending expression. *)
  match Ir.Lower.program (main_prog [ ret (v "y") ]) with
  | _ -> Alcotest.fail "unbound variable lowered without a diagnostic"
  | exception Ir.Diag.Fail d ->
    Alcotest.(check string) "stage" "lower" (Ir.Diag.stage_name d.Ir.Diag.stage);
    Alcotest.(check (option string)) "function" (Some "main") d.Ir.Diag.func;
    Alcotest.(check bool) "has block context" true (d.Ir.Diag.block <> None);
    Alcotest.(check string) "message" "unbound variable y" d.Ir.Diag.message

let structure () =
  let p = Ir.Lower.program caller_prog in
  Ir.Check.program p;
  (* Dead code after return becomes real unreachable blocks. *)
  let dead =
    Ir.Lower.program
      (main_prog [ ret (i 1); decl "x" (i 2); set "x" (v "x"); ret (v "x") ])
  in
  Ir.Check.program dead;
  let f = dead.Ir.Prog.funcs.(dead.Ir.Prog.entry) in
  Alcotest.(check bool) "has unreachable blocks"
    true
    (Array.length f.Ir.Prog.blocks > 1)

let prologue_size_model () =
  let p = Ir.Lower.program caller_prog in
  let f = Helpers.func_by_name p "twice" in
  let entry = f.Ir.Prog.blocks.(0) in
  let base = Array.length entry.Ir.Cfg.insns + 1 in
  Alcotest.(check bool) "entry block carries prologue+epilogue padding" true
    (Ir.Cfg.instr_count entry > base)

let code_scaling () =
  let p = Ir.Lower.program caller_prog in
  let half = Ir.Prog.scale_code 0.5 p in
  let double = Ir.Prog.scale_code 2.0 p in
  Alcotest.(check bool) "scaling shrinks" true
    (Ir.Prog.total_byte_size half < Ir.Prog.total_byte_size p);
  Alcotest.(check int) "scaling by 2 doubles sizes (block granularity)"
    (2 * Ir.Prog.total_instr_count p)
    (Ir.Prog.total_instr_count double);
  (* Semantics unchanged. *)
  let r = Vm.Interp.run half (Vm.Io.input []) in
  Alcotest.(check int) "half-scaled still computes" 90 r.Vm.Interp.return_value;
  (* Every block retains at least one instruction slot. *)
  Ir.Prog.iter_blocks
    (fun _ _ _ b ->
      Alcotest.(check bool) "block size >= 1" true (Ir.Cfg.instr_count b >= 1))
    (Ir.Prog.scale_code 0.01 p)

(* Every lowering failure must be a structured [Diag.Fail] with stage
   [lower] and the function context, never a bare exception. *)
let lowering_diagnostics () =
  let expect_lower name body =
    match Ir.Lower.program (main_prog body) with
    | _ -> Alcotest.failf "%s: lowered without a diagnostic" name
    | exception Ir.Diag.Fail d ->
      Alcotest.(check string) (name ^ " stage") "lower"
        (Ir.Diag.stage_name d.Ir.Diag.stage);
      Alcotest.(check (option string))
        (name ^ " function") (Some "main") d.Ir.Diag.func
  in
  expect_lower "break outside loop" [ break_; ret (i 0) ];
  expect_lower "continue outside loop" [ continue_; ret (i 0) ];
  expect_lower "unknown global" [ ret (ld32 (g "nope")) ];
  (* Duplicate globals are caught before any function body lowers. *)
  match
    Ir.Lower.program
      {
        Ir.Ast.globals = [ ("twice", Ir.Ast.Gzero 4); ("twice", Ir.Ast.Gzero 4) ];
        funcs = [ func "main" [] [ ret (i 0) ] ];
        entry = "main";
      }
  with
  | _ -> Alcotest.fail "duplicate global lowered without a diagnostic"
  | exception Ir.Diag.Fail d ->
    Alcotest.(check string) "duplicate global stage" "lower"
      (Ir.Diag.stage_name d.Ir.Diag.stage)

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick arithmetic;
    Alcotest.test_case "if/else" `Quick if_else;
    Alcotest.test_case "loops, break, continue" `Quick loops;
    Alcotest.test_case "short-circuit and ternary" `Quick short_circuit;
    Alcotest.test_case "switch with fall-through" `Quick switch_semantics;
    Alcotest.test_case "calls and recursion" `Quick calls_and_recursion;
    Alcotest.test_case "globals and memory" `Quick globals_and_memory;
    Alcotest.test_case "scoping" `Quick scoping;
    Alcotest.test_case "lowering diagnostics" `Quick lowering_diagnostics;
    Alcotest.test_case "structure and dead code" `Quick structure;
    Alcotest.test_case "prologue size model" `Quick prologue_size_model;
    Alcotest.test_case "code scaling" `Quick code_scaling;
  ]
