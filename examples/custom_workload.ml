(* Custom workload: everything a downstream user does to study their own
   program — author it in the DSL (linking the bundled libc), register it
   as a benchmark with profiling and trace inputs, and push it through
   the placement pipeline and the cache experiments.

     dune exec examples/custom_workload.exe *)

open Ir.Ast.Dsl

(* "freq": a word-frequency reporter — read words, intern them in a hash
   table, count occurrences, sort the counts, print the histogram of
   count magnitudes.  Uses the libc qsort, hashing and ctype routines. *)

let slots = 512

let globals =
  [
    ("fq_names", Ir.Ast.Gzero (slots * 4));
    ("fq_counts", Ir.Ast.Gzero (slots * 4));
    ("fq_arena", Ir.Ast.Gzero 8192);
    ("fq_next", Ir.Ast.Gzero 4);
    ("fq_fill", Ir.Ast.Gzero 4);
  ]

let intern =
  func "intern" [ "word" ]
    [
      decl "h" (call "hash_string" [ v "word"; i slots ]);
      while_ (i 1)
        [
          decl "e" (ld32 (g "fq_names" +% (v "h" *% i 4)));
          when_ (v "e" ==% i 0)
            [
              when_ (ld32 (g "fq_fill") >=% i (slots * 3 / 4))
                [ ret (i 0 -% i 1) ];
              decl "off" (ld32 (g "fq_next"));
              expr (call "strcpy" [ g "fq_arena" +% v "off"; v "word" ]);
              st32 (g "fq_next") (v "off" +% call "strlen" [ v "word" ] +% i 1);
              st32 (g "fq_names" +% (v "h" *% i 4)) (v "off" +% i 1);
              st32 (g "fq_fill") (ld32 (g "fq_fill") +% i 1);
              ret (v "h");
            ];
          when_
            (call "strcmp" [ v "word"; g "fq_arena" +% (v "e" -% i 1) ] ==% i 0)
            [ ret (v "h") ];
          set "h" ((v "h" +% i 1) &% i (slots - 1));
        ];
      ret (i 0 -% i 1);
    ]

let main =
  func "main" []
    [
      decl "word" (alloc (i 64));
      decl "n" (i 0);
      decl "c" (getc (i 0));
      while_ (v "c" >=% i 0)
        [
          if_
            (call "is_alpha" [ v "c" ])
            [
              set "n" (i 0);
              while_ (call "is_alnum" [ v "c" ])
                [
                  when_ (v "n" <% i 63)
                    [ st8 (v "word" +% v "n") (call "to_lower" [ v "c" ]); incr_ "n" ];
                  set "c" (getc (i 0));
                ];
              st8 (v "word" +% v "n") (i 0);
              decl "slot" (call "intern" [ v "word" ]);
              when_ (v "slot" >=% i 0)
                [
                  st32 (g "fq_counts" +% (v "slot" *% i 4))
                    (ld32 (g "fq_counts" +% (v "slot" *% i 4)) +% i 1);
                ];
            ]
            [ set "c" (getc (i 0)) ];
        ];
      (* Sort all nonzero counts and print the five largest. *)
      decl "packed" (alloc (i (slots * 4)));
      decl "m" (i 0);
      decl "k" (i 0);
      while_ (v "k" <% i slots)
        [
          decl "cnt" (ld32 (g "fq_counts" +% (v "k" *% i 4)));
          when_ (v "cnt" >% i 0)
            [
              st32 (v "packed" +% (v "m" *% i 4)) (v "cnt");
              incr_ "m";
            ];
          incr_ "k";
        ];
      when_ (v "m" >% i 0)
        [ expr (call "qsort_words" [ v "packed"; i 0; v "m" -% i 1 ]) ];
      decl "show" (call "min_i" [ v "m"; i 5 ]);
      decl "j" (v "m" -% v "show");
      while_ (v "j" <% v "m")
        [
          expr (call "print_num" [ i 0; ld32 (v "packed" +% (v "j" *% i 4)) ]);
          putc (i 0) (chr ' ');
          incr_ "j";
        ];
      putc (i 0) (chr '\n');
      ret (v "m");
    ]

let benchmark =
  Workloads.Bench.make ~name:"freq"
    ~description:"word-frequency histogram over prose text"
    ~ast:(fun () -> Workloads.Libc.link ~globals ~entry:"main" [ intern; main ])
    ~profile_inputs:(fun () ->
      [
        Vm.Io.input [ Workloads.Inputs.text ~seed:3 ~bytes:15_000 ];
        Vm.Io.input [ Workloads.Inputs.text ~seed:4 ~bytes:25_000 ];
      ])
    ~trace_input:(fun () ->
      Vm.Io.input [ Workloads.Inputs.text ~seed:5 ~bytes:60_000 ])

let () =
  (* Sanity-run the program itself. *)
  let program = Workloads.Bench.program benchmark in
  Ir.Check.program program;
  let r = Vm.Interp.run program (Workloads.Bench.trace_input benchmark) in
  Printf.printf "freq: %d distinct words; top counts: %s\n"
    r.Vm.Interp.return_value
    (String.trim (Vm.Io.output r.Vm.Interp.io 0));

  (* Full placement pipeline + the paper's headline measurement. *)
  let pl =
    Placement.Pipeline.run program
      ~inputs:(Workloads.Bench.profile_inputs benchmark)
  in
  let trace =
    Sim.Trace.record pl.Placement.Pipeline.program
      (Workloads.Bench.trace_input benchmark)
  in
  let configs =
    List.map (fun size -> Icache.Config.make ~size ~block:64 ()) [ 512; 1024; 2048 ]
  in
  List.iter2
    (fun (natural : Sim.Driver.result) (optimized : Sim.Driver.result) ->
      Printf.printf
        "%4dB direct-mapped: natural miss %-8s optimized miss %s\n"
        natural.Sim.Driver.config.Icache.Config.size
        (Report.Fmtutil.pct natural.Sim.Driver.miss_ratio)
        (Report.Fmtutil.pct optimized.Sim.Driver.miss_ratio))
    (Sim.Driver.simulate configs pl.Placement.Pipeline.natural trace)
    (Sim.Driver.simulate configs pl.Placement.Pipeline.optimized trace)
