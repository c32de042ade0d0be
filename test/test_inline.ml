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
        (Ir.Simplify.program (Workloads.Bench.program b))
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
  ]
