(* Inline expansion tests: semantic preservation, recursion guards, size
   accounting. *)

open Ir.Ast.Dsl
open Helpers

let behavior_preserved ?config prog inputs =
  let p = Ir.Lower.program prog in
  let inlined, _report =
    Placement.Inline.expand ?config ~profile:(Vm.Profile.profile p inputs) p
  in
  Ir.Check.program inlined;
  List.iter
    (fun input ->
      let before = Vm.Interp.run p input in
      let after = Vm.Interp.run inlined input in
      Alcotest.(check int) "return value preserved"
        before.Vm.Interp.return_value after.Vm.Interp.return_value;
      Alcotest.(check string) "output preserved"
        (Vm.Io.output before.Vm.Interp.io 0)
        (Vm.Io.output after.Vm.Interp.io 0))
    inputs;
  (p, inlined)

let aggressive =
  {
    Placement.Inline.default_config with
    min_call_count = 1;
    min_call_fraction = 0.;
    max_program_growth = 10.;
  }

let simple_splice () =
  let p = Ir.Lower.program caller_prog in
  let prof = Vm.Profile.profile p [ Vm.Io.input [] ] in
  let p', report =
    Placement.Inline.expand ~config:{ aggressive with rounds = 1 }
      ~profile:prof p
  in
  Alcotest.(check int) "one site inlined" 1
    report.Placement.Inline.sites_inlined;
  Ir.Check.program p';
  let r = Vm.Interp.run p' (Vm.Io.input []) in
  Alcotest.(check int) "behavior preserved" 90 r.Vm.Interp.return_value;
  Alcotest.(check int) "no dynamic calls remain" 0 r.Vm.Interp.dyn_calls;
  Alcotest.(check bool) "code grew" true
    (Ir.Prog.total_instr_count p' > Ir.Prog.total_instr_count p)

let splice_with_return_value () =
  (* Callee with multiple returns: every Ret must be rewritten. *)
  let prog =
    {
      Ir.Ast.globals = [];
      funcs =
        [
          func "classify" [ "x" ]
            [
              when_ (v "x" <% i 0) [ ret (i 0 -% i 1) ];
              when_ (v "x" ==% i 0) [ ret (i 0) ];
              ret (i 1);
            ];
          func "main" []
            [
              ret
                (call "classify" [ i 5 ]
                +% (call "classify" [ i 0 ] *% i 10)
                +% (call "classify" [ neg (i 3) ] *% i 100));
            ];
        ];
      entry = "main";
    }
  in
  let p, inlined = behavior_preserved ~config:aggressive prog [ Vm.Io.input [] ] in
  ignore p;
  let r = Vm.Interp.run inlined (Vm.Io.input []) in
  Alcotest.(check int) "all three sites inlined away" 0 r.Vm.Interp.dyn_calls

let recursion_not_inlined () =
  let prog =
    {
      Ir.Ast.globals = [];
      funcs =
        [
          func "fact" [ "n" ]
            [
              when_ (v "n" <=% i 1) [ ret (i 1) ];
              ret (v "n" *% call "fact" [ v "n" -% i 1 ]);
            ];
          func "main" [] [ ret (call "fact" [ i 10 ]) ];
        ];
      entry = "main";
    }
  in
  let p = Ir.Lower.program prog in
  let prof = Vm.Profile.profile p [ Vm.Io.input [] ] in
  (* fact -> fact is recursive; main -> fact is fine (fact cannot reach
     main). *)
  let p', _ =
    Placement.Inline.expand ~config:{ aggressive with rounds = 1 }
      ~profile:prof p
  in
  Ir.Check.program p';
  let fact = Helpers.func_by_name p' "fact" in
  let still_recursive =
    Array.exists
      (fun b -> Ir.Cfg.callee b = Some "fact")
      fact.Ir.Prog.blocks
  in
  Alcotest.(check bool) "fact still calls itself" true still_recursive;
  Alcotest.(check int) "value preserved" 3628800
    (Vm.Interp.run p' (Vm.Io.input [])).Vm.Interp.return_value

let mutual_recursion_guard () =
  let prog =
    {
      Ir.Ast.globals = [];
      funcs =
        [
          func "is_even" [ "n" ]
            [
              when_ (v "n" ==% i 0) [ ret (i 1) ];
              ret (call "is_odd" [ v "n" -% i 1 ]);
            ];
          func "is_odd" [ "n" ]
            [
              when_ (v "n" ==% i 0) [ ret (i 0) ];
              ret (call "is_even" [ v "n" -% i 1 ]);
            ];
          func "main" [] [ ret (call "is_even" [ i 40 ]) ];
        ];
      entry = "main";
    }
  in
  let _, inlined = behavior_preserved prog [ Vm.Io.input [] ] in
  Alcotest.(check int) "still computes" 1
    (Vm.Interp.run inlined (Vm.Io.input [])).Vm.Interp.return_value

let growth_budget_respected () =
  let p = Ir.Lower.program caller_prog in
  let before = Ir.Prog.total_instr_count p in
  let config =
    { aggressive with Placement.Inline.max_program_growth = 1.0 }
  in
  let p', report =
    Placement.Inline.expand ~config
      ~profile:(Vm.Profile.profile p [ Vm.Io.input [] ])
      p
  in
  (* With zero growth allowance nothing can be inlined. *)
  Alcotest.(check int) "no sites under zero budget" 0
    report.Placement.Inline.sites_inlined;
  Alcotest.(check int) "size unchanged" before (Ir.Prog.total_instr_count p')

let workload_semantics_preserved () =
  (* End to end: a real workload behaves identically after expansion. *)
  List.iter
    (fun (name, input) ->
      let b = Workloads.Registry.find name in
      ignore
        (behavior_preserved (Workloads.Bench.ast b) [ input ]))
    [
      ("wc", Vm.Io.input [ "a few words\nand lines\n" ]);
      ("yacc", Vm.Io.input [ "1+2*3;(4-1)*10;9/2;" ]);
      ("cccp", Vm.Io.input [ "#define A 1\nx A y\n#undef A\nx A y\n" ]);
    ]

(* Derived round counts against a VM pass per round. *)
let same_as_oracle ?config name p inputs =
  match Oracle.Inline_rounds.same_as_oracle ?config p inputs with
  | Ok () -> ()
  | Error what -> Alcotest.failf "%s: derived and VM counts differ at %s" name what

let derived_counts_workloads () =
  List.iter
    (fun b ->
      same_as_oracle b.Workloads.Bench.name
        (fst (Ir.Simplify.program (Workloads.Bench.program b)))
        (Workloads.Bench.profile_inputs b))
    Workloads.Registry.all

let prop_derived_counts =
  QCheck.Test.make ~name:"derived round counts equal the VM's" ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      same_as_oracle ~config:Oracle.Inline_rounds.aggressive
        (Printf.sprintf "seed %d" seed)
        (Ir.Lower.program (Oracle.Gen.generate seed))
        [ Vm.Io.input [] ];
      true)

(* An outside caller z of the mutually recursive b and c.  Inlining
   never enters the b/c cycle itself, but z and main are outside it:
   round 0 inlines z -> b and then main -> z, round 1 main's copy of
   b -> c, round 2 its copy of c -> b, and so on down the recursion.
   The depth varies with the loop counter, so each level of the
   recursion has its own call counts: a tree that merged a recursive
   call into its ancestor would give every copy the counts of all
   levels. *)
let recursion_prog =
  {
    Ir.Ast.globals = [];
    funcs =
      [
        func "b" [ "n" ]
          [ when_ (v "n" <=% i 0) [ ret (i 1) ]; ret (call "c" [ v "n" -% i 1 ] +% i 3) ];
        func "c" [ "n" ]
          [ when_ (v "n" <=% i 0) [ ret (i 2) ]; ret (call "b" [ v "n" -% i 1 ] *% i 2) ];
        func "z" [ "k" ] [ ret (call "b" [ v "k" %% i 7 ]) ];
        func "main" []
          [
            decl "s" (i 0);
            for_ [ decl "k" (i 0) ] (v "k" <% i 50) [ incr_ "k" ]
              [ set "s" (v "s" +% call "z" [ v "k" ]) ];
            ret (v "s");
          ];
      ];
    entry = "main";
  }

let derived_counts_recursion () =
  let p = Ir.Lower.program recursion_prog in
  let inputs = [ Vm.Io.input [] ] in
  let config = { aggressive with Placement.Inline.rounds = 6 } in
  same_as_oracle ~config "recursion" p inputs;
  let p', report =
    Placement.Inline.expand ~config ~profile:(Vm.Profile.profile p inputs) p
  in
  (* Two sites in round 0, then main's next call down the chain in each
     later round: the deepest chain, b(6) -> c(5) -> ... -> b(0), is
     seven calls, so every round finds one. *)
  Alcotest.(check int) "every round inlined" 6 report.Placement.Inline.rounds_used;
  Alcotest.(check int) "one level a round" 7 report.Placement.Inline.sites_inlined;
  Alcotest.(check int) "value preserved"
    (Vm.Interp.run p (Vm.Io.input [])).Vm.Interp.return_value
    (Vm.Interp.run p' (Vm.Io.input [])).Vm.Interp.return_value

(* The derived profile of the shipped program against a VM pass over
   it: every count, every table's fold order, the context tree and the
   event log. *)
let derived_profile ?(config = aggressive) name prog inputs =
  match Oracle.Inlined_profile.same_as_oracle ~config prog inputs with
  | Ok () -> ()
  | Error what -> Alcotest.failf "%s: derived and VM profiles differ in %s" name what

let derived_profile_workloads () =
  List.iter
    (fun b ->
      derived_profile ~config:Placement.Inline.default_config
        b.Workloads.Bench.name (Workloads.Bench.program b)
        (Workloads.Bench.profile_inputs b))
    Workloads.Registry.all

let prop_derived_profile =
  QCheck.Test.make ~name:"derived inlined profile equals the VM's" ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      derived_profile ~config:Oracle.Inline_rounds.aggressive
        (Printf.sprintf "seed %d" seed)
        (Ir.Lower.program (Oracle.Gen.generate seed))
        [ Vm.Io.input []; Vm.Io.input ~args:[ 3 ] [ "input" ] ];
      true)

let blk insns term = Ir.Cfg.mk_block (Array.of_list insns) term

let fn name nparams nregs blocks =
  { Ir.Prog.name; nparams; nregs; blocks = Array.of_list blocks }

let call ?dst callee args ret_to = Ir.Cfg.Call { callee; args; dst; ret_to }

(* What inlining and cleanup do to [p] under [config]: the inlined
   program, the report, and the cleanup's label maps. *)
let shipped ?(config = aggressive) p inputs =
  let original = fst (Ir.Simplify.program p) in
  let profile = Vm.Profile.profile original inputs in
  let inlined, report = Placement.Inline.expand ~config ~profile original in
  (report, snd (Ir.Simplify.program inlined))

(* A loop calls [helper] twice per iteration, once using its result and
   once not; [helper] returns from one of two [Ret] blocks.  In the copy
   spliced without a result register, the [Ret] block with no
   instructions becomes an empty jump to the continuation, which the
   cleanup threads away. *)
let two_returns_prog =
  let open Ir.Insn in
  Ir.Prog.make ~entry:"main"
    [
      fn "main" 0 6
        [
          blk [ Mov (0, Imm 0); Mov (4, Imm 0) ] (Jump 1);
          blk [ Bin (Lt, 1, Reg 0, Imm 10) ] (Br (Reg 1, 2, 5));
          blk [ Bin (And, 2, Reg 0, Imm 1) ] (call ~dst:3 "helper" [ Reg 2 ] 3);
          blk [ Bin (Add, 4, Reg 4, Reg 3) ] (call "helper" [ Reg 2 ] 4);
          blk [ Bin (Add, 0, Reg 0, Imm 1) ] (Jump 1);
          blk [] (Ret (Some (Reg 4)));
        ];
      fn "helper" 1 2
        [
          blk [] (Br (Reg 0, 1, 2));
          blk [ Mov (1, Imm 7) ] (Ret (Some (Reg 1)));
          blk [] (Ret None);
        ];
    ]

let derived_two_returns () =
  let inputs = [ Vm.Io.input [] ] in
  let report, kept = shipped two_returns_prog inputs in
  Alcotest.(check int) "both sites inlined" 2 report.Placement.Inline.sites_inlined;
  Alcotest.(check bool) "a copy's Ret block is threaded away" true
    (Array.exists (fun l -> l < 0) kept.(0));
  derived_profile "two returns" two_returns_prog inputs

(* A call block with no instructions, arguments or result becomes an
   empty jump into the copy, and the copy's entry an empty jump too: the
   cleanup threads both away.  The empty function [nop] leaves a [Br]
   whose two targets thread to one label, which the next cleanup round
   folds to a [Jump]. *)
let empty_call_prog =
  let open Ir.Insn in
  Ir.Prog.make ~entry:"main"
    [
      fn "main" 0 3
        [
          blk [ Mov (0, Imm 0) ] (Jump 1);
          blk [ Bin (Lt, 1, Reg 0, Imm 4) ] (Br (Reg 1, 2, 4));
          blk [] (call "g" [] 3);
          blk [ Bin (Add, 0, Reg 0, Imm 1); Bin (And, 2, Reg 0, Imm 1) ] (Br (Reg 2, 5, 6));
          blk [] (Ret (Some (Reg 0)));
          blk [] (call "nop" [] 6);
          blk [ Mov (1, Imm 0) ] (Jump 1);
        ];
      fn "g" 0 1 [ blk [] (Jump 1); blk [ Mov (0, Imm 5) ] (Ret (Some (Reg 0))) ];
      fn "nop" 0 1 [ blk [] (Ret None) ];
    ]

let derived_empty_call () =
  let inputs = [ Vm.Io.input [] ] in
  let _, kept = shipped empty_call_prog inputs in
  Alcotest.(check int) "the empty call block is threaded away" (-1) kept.(0).(2);
  derived_profile "empty call block" empty_call_prog inputs

(* Round 0 splices [f] into [main] before inlining [f]'s own call to
   [g], so [main]'s copy still calls [g]: round 1 splices that call
   inside the copy. *)
let nested_prog =
  let open Ir.Ast.Dsl in
  {
    Ir.Ast.globals = [];
    funcs =
      [
        func "main" []
          [
            decl "s" (i 0);
            for_ [ decl "k" (i 0) ] (v "k" <% i 20) [ incr_ "k" ]
              [ set "s" (v "s" +% call "f" [ v "k" ]) ];
            ret (v "s");
          ];
        func "f" [ "x" ] [ ret (call "g" [ v "x" ] +% i 1) ];
        func "g" [ "y" ] [ when_ (v "y" >% i 9) [ ret (i 0) ]; ret (v "y" *% i 3) ];
      ];
    entry = "main";
  }

let derived_nested () =
  let p = Ir.Lower.program nested_prog in
  let inputs = [ Vm.Io.input [] ] in
  let report, _ = shipped p inputs in
  Alcotest.(check int) "a second round" 2 report.Placement.Inline.rounds_used;
  Alcotest.(check int) "three sites" 3 report.Placement.Inline.sites_inlined;
  derived_profile "round-2 splice in a copy" p inputs

let derived_recursion () =
  derived_profile
    ~config:{ aggressive with Placement.Inline.rounds = 6 }
    "recursion below a copy"
    (Ir.Lower.program recursion_prog)
    [ Vm.Io.input [] ]

(* The first argument picks which callee the loop calls, so the second
   input takes the other callee's arcs for the first time: the log's
   order across runs is not either run's order. *)
let two_inputs_prog =
  let open Ir.Insn in
  let callee name bound =
    fn name 1 3
      [
        blk [ Bin (Lt, 1, Reg 0, Imm bound) ] (Br (Reg 1, 1, 2));
        blk [ Mov (2, Imm 1) ] (Ret (Some (Reg 2)));
        blk [] (Ret (Some (Reg 0)));
      ]
  in
  Ir.Prog.make ~entry:"main"
    [
      fn "main" 0 6
        [
          blk [ Intrin (Arg, Some 1, [ Imm 0 ]); Mov (0, Imm 0); Mov (5, Imm 0) ] (Jump 1);
          blk [ Bin (Lt, 2, Reg 0, Imm 6) ] (Br (Reg 2, 2, 6));
          blk [ Bin (Add, 3, Reg 0, Imm 0) ] (Br (Reg 1, 3, 4));
          blk [ Mov (3, Reg 0) ] (call ~dst:4 "a" [ Reg 3 ] 5);
          blk [ Mov (3, Reg 0) ] (call ~dst:4 "b" [ Reg 3 ] 5);
          blk [ Bin (Add, 0, Reg 0, Imm 1); Bin (Add, 5, Reg 5, Reg 4) ] (Jump 1);
          blk [] (Ret (Some (Reg 5)));
        ];
      callee "a" 2;
      callee "b" 4;
    ]

let derived_two_inputs () =
  derived_profile "two inputs" two_inputs_prog
    (List.map (fun a -> Vm.Io.input ~args:[ a ] []) [ 0; 1; 0 ])

let suite =
  [
    Alcotest.test_case "simple splice" `Quick simple_splice;
    Alcotest.test_case "multiple returns" `Quick splice_with_return_value;
    Alcotest.test_case "recursion not inlined" `Quick recursion_not_inlined;
    Alcotest.test_case "mutual recursion guard" `Quick mutual_recursion_guard;
    Alcotest.test_case "growth budget respected" `Quick growth_budget_respected;
    Alcotest.test_case "workload semantics preserved" `Quick
      workload_semantics_preserved;
    Alcotest.test_case "derived counts: recursion" `Quick derived_counts_recursion;
    QCheck_alcotest.to_alcotest prop_derived_counts;
    Alcotest.test_case "derived counts: every workload" `Slow
      derived_counts_workloads;
    Alcotest.test_case "derived profile: two Ret blocks" `Quick derived_two_returns;
    Alcotest.test_case "derived profile: empty call threaded away" `Quick
      derived_empty_call;
    Alcotest.test_case "derived profile: round-2 splice in a copy" `Quick
      derived_nested;
    Alcotest.test_case "derived profile: recursion below a copy" `Quick
      derived_recursion;
    Alcotest.test_case "derived profile: two inputs" `Quick derived_two_inputs;
    QCheck_alcotest.to_alcotest prop_derived_profile;
    Alcotest.test_case "derived profile equals the VM's: every workload" `Slow
      derived_profile_workloads;
  ]
