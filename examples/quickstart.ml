(* Quickstart: the whole system on one small program.

   Write a mini-C program with the DSL, lower it, profile it, run the
   five-step placement pipeline, and compare instruction-cache behavior
   of the natural and optimized layouts.

     dune exec examples/quickstart.exe *)

open Ir.Ast.Dsl

(* A program with a hot loop, a cold error path, and a helper function:
   exactly the structure instruction placement feeds on. *)
let program_ast : Ir.Ast.program =
  {
    globals = [ ("greeting", Ir.Ast.Gstring "checksum: ") ];
    funcs =
      [
        func "rotate" [ "x"; "k" ]
          [
            ret
              (((v "x" <<% v "k") |% (v "x" >>% (i 31 -% v "k")))
              &% i 0x7fffffff);
          ];
        func "main" []
          [
            decl "sum" (i 0);
            decl "c" (getc (i 0));
            while_ (v "c" >=% i 0)
              [
                (* hot path: mix every byte into the checksum *)
                set "sum" (call "rotate" [ v "sum" ^% v "c"; i 5 ]);
                (* cold path: should be pushed out of the hot region *)
                when_ (v "c" ==% i 7)
                  [
                    expr (call "print_string" [ i 0; g "greeting" ]);
                    expr (call "print_num" [ i 0; v "sum" ]);
                    putc (i 0) (chr '\n');
                  ];
                set "c" (getc (i 0));
              ];
            expr (call "print_string" [ i 0; g "greeting" ]);
            expr (call "print_num" [ i 0; v "sum" ]);
            putc (i 0) (chr '\n');
            ret (v "sum");
          ];
      ];
    entry = "main";
  }

let () =
  (* 1. Lower the AST to the RISC-like CFG form and validate it. *)
  let program = Ir.Lower.program (Workloads.Libc.link ~globals:program_ast.globals ~entry:"main" program_ast.funcs) in
  Ir.Check.program program;
  Printf.printf "lowered: %d functions, %d bytes of code\n"
    (Array.length program.Ir.Prog.funcs)
    (Ir.Prog.total_byte_size program);

  (* 2. Profile on representative inputs (paper step 1). *)
  let inputs =
    [
      Vm.Io.input [ Workloads.Inputs.text ~seed:1 ~bytes:8_000 ];
      Vm.Io.input [ Workloads.Inputs.text ~seed:2 ~bytes:12_000 ];
    ]
  in

  (* 3-5. Inline expansion, trace selection, function and global layout. *)
  let pl = Placement.Pipeline.run program ~inputs in
  Printf.printf "inlined %d call sites (%+.1f%% code)\n"
    pl.Placement.Pipeline.inline_report.Placement.Inline.sites_inlined
    (100.
    *. Placement.Inline.code_increase pl.Placement.Pipeline.inline_report);
  Printf.printf "effective region: %d of %d bytes\n"
    pl.Placement.Pipeline.optimized.Placement.Address_map.effective_bytes
    pl.Placement.Pipeline.optimized.Placement.Address_map.total_bytes;

  (* Trace-driven cache simulation on a held-out input. *)
  let trace =
    Sim.Trace.record pl.Placement.Pipeline.program
      (Vm.Io.input [ Workloads.Inputs.text ~seed:99 ~bytes:40_000 ])
  in
  Printf.printf "trace: %d dynamic instructions\n"
    (Sim.Trace.result trace).Vm.Interp.dyn_insns;
  let config = Icache.Config.make ~size:512 ~block:64 () in
  let simulate map = List.hd (Sim.Driver.simulate [ config ] map trace) in
  let natural = simulate pl.Placement.Pipeline.natural in
  let optimized = simulate pl.Placement.Pipeline.optimized in
  Printf.printf "512B direct-mapped, 64B blocks:\n";
  Printf.printf "  natural layout:   miss %-7s traffic %s\n"
    (Report.Fmtutil.pct natural.Sim.Driver.miss_ratio)
    (Report.Fmtutil.pct natural.Sim.Driver.traffic_ratio);
  Printf.printf "  optimized layout: miss %-7s traffic %s\n"
    (Report.Fmtutil.pct optimized.Sim.Driver.miss_ratio)
    (Report.Fmtutil.pct optimized.Sim.Driver.traffic_ratio)
