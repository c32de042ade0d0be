(* Interpreter tests: intrinsics, faults, dynamic counters, per-run
   block/arc/call counters. *)

open Ir.Ast.Dsl
open Helpers

let intrinsics () =
  (* getc/putc round trip with EOF. *)
  let echo =
    main_prog
      [
        decl "n" (i 0);
        decl "c" (getc (i 0));
        while_ (v "c" >=% i 0)
          [ putc (i 0) (v "c" +% i 1); incr_ "n"; set "c" (getc (i 0)) ];
        ret (v "n");
      ]
  in
  let r = run ~streams:[ "abc" ] echo in
  Alcotest.(check int) "bytes read" 3 r.Vm.Interp.return_value;
  Alcotest.(check string) "shifted output" "bcd" (Vm.Io.output r.Vm.Interp.io 0);
  (* stream_len and args *)
  Alcotest.(check int) "stream_len" 5
    (ret_of ~streams:[ "12345" ] (main_prog [ ret (stream_len (i 0)) ]));
  Alcotest.(check int) "arg" 42
    (ret_of ~args:[ 7; 42 ] (main_prog [ ret (arg 1) ]));
  Alcotest.(check int) "missing arg is 0" 0
    (ret_of (main_prog [ ret (arg 3) ]));
  (* alloc returns fresh zeroed, 4-aligned regions *)
  Alcotest.(check int) "alloc zeroed and disjoint" 0
    (ret_of
       (main_prog
          [
            decl "a" (alloc (i 10));
            decl "b" (alloc (i 10));
            st8 (v "a") (i 7);
            when_ (v "a" ==% v "b") [ ret (i 111) ];
            when_ ((v "a" %% i 4) <>% i 0) [ ret (i 222) ];
            ret (ld8 (v "b"));
          ]))

let faults () =
  let expect_fault name body =
    match run (main_prog body) with
    | exception Vm.Interp.Fault _ -> ()
    | exception Vm.Memory.Fault _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected a fault")
  in
  expect_fault "div by zero" [ decl "z" (i 0); ret (i 1 /% v "z") ];
  expect_fault "rem by zero" [ decl "z" (i 0); ret (i 1 %% v "z") ];
  expect_fault "null load" [ ret (ld8 (i 0)) ];
  expect_fault "null store" [ st32 (i 12) (i 1); ret0 ];
  expect_fault "abort" [ abort_; ret0 ];
  (* fuel exhaustion *)
  (match
     Vm.Interp.run ~fuel:1000
       (Ir.Lower.program (main_prog [ while_ (i 1) []; ret0 ]))
       (Vm.Io.input [])
   with
  | exception Vm.Interp.Fault _ -> ()
  | _ -> Alcotest.fail "expected fuel fault")

let counters () =
  let r = run caller_prog in
  (* 10 calls to twice *)
  Alcotest.(check int) "calls" 10 r.Vm.Interp.dyn_calls;
  Alcotest.(check bool) "insns counted" true (r.Vm.Interp.dyn_insns > 0);
  Alcotest.(check bool) "branches exclude calls/returns" true
    (r.Vm.Interp.dyn_branches > 0);
  (* dyn_insns equals the sum of instr_count over executed blocks *)
  let p = Ir.Lower.program caller_prog in
  let r2 = Vm.Interp.run p (Vm.Io.input []) in
  let total = ref 0 in
  Ir.Prog.iter_blocks
    (fun fid _ l b ->
      total :=
        !total
        + (Vm.Interp.block_count r2.Vm.Interp.counts fid l
          * Ir.Cfg.instr_count b))
    p;
  Alcotest.(check int) "dyn_insns = sum of block sizes" r2.Vm.Interp.dyn_insns
    !total

let counted_arcs () =
  (* Each counted arc must be a structural successor of its source block,
     and each call a real call site. *)
  let p = Ir.Lower.program caller_prog in
  let c = (Vm.Interp.run p (Vm.Io.input [])).Vm.Interp.counts in
  let bad = ref 0 in
  let arcs = ref 0 in
  let calls = ref 0 in
  Vm.Interp.iter_arcs c (fun fid src dst n ->
      arcs := !arcs + n;
      let b = p.Ir.Prog.funcs.(fid).Ir.Prog.blocks.(src) in
      if not (List.mem dst (Ir.Cfg.successors b)) then incr bad);
  Vm.Interp.iter_calls c (fun fid src callee n ->
      calls := !calls + n;
      let b = p.Ir.Prog.funcs.(fid).Ir.Prog.blocks.(src) in
      match Ir.Cfg.callee b with
      | Some name -> if Ir.Prog.func_index p name <> callee then incr bad
      | None -> incr bad);
  Alcotest.(check int) "all arcs structural" 0 !bad;
  Alcotest.(check int) "ten call arcs" 10 !calls;
  Alcotest.(check bool) "arcs observed" true (!arcs > 0)

let memory_roundtrip () =
  let m = Vm.Memory.create 4096 in
  Vm.Memory.write32 m 8192 0x12345678;
  Alcotest.(check int) "read32" 0x12345678 (Vm.Memory.read32 m 8192);
  Vm.Memory.write8 m 8192 0xff;
  Alcotest.(check int) "write8 modifies low byte" 0x123456ff
    (Vm.Memory.read32 m 8192);
  Vm.Memory.blit_string m "hello" 9000;
  Alcotest.(check string) "blit/read_string" "hello"
    (Vm.Memory.read_string m 9000 5);
  Alcotest.(check int) "uninitialized reads as zero" 0 (Vm.Memory.read32 m 20000);
  Alcotest.check_raises "low address faults"
    (Vm.Memory.Fault "access to unmapped low address 0") (fun () ->
      ignore (Vm.Memory.read8 m 0))

let io_streams () =
  let io = Vm.Io.of_input (Vm.Io.input ~args:[ 5 ] [ "ab"; "xyz" ]) in
  Alcotest.(check int) "stream0 first" (Char.code 'a') (Vm.Io.getc io 0);
  Alcotest.(check int) "stream1 independent" (Char.code 'x') (Vm.Io.getc io 1);
  Alcotest.(check int) "stream0 second" (Char.code 'b') (Vm.Io.getc io 0);
  Alcotest.(check int) "eof" (-1) (Vm.Io.getc io 0);
  Alcotest.(check int) "eof stable" (-1) (Vm.Io.getc io 0);
  Alcotest.(check int) "bad stream" (-1) (Vm.Io.getc io 99);
  Vm.Io.putc io 2 65;
  Vm.Io.putc io 2 66;
  Alcotest.(check string) "output buffered" "AB" (Vm.Io.output io 2);
  Alcotest.(check int) "arg" 5 (Vm.Io.arg io 0);
  (* A stream past the last one is refused, not silently dropped. *)
  let streams = List.init (Vm.Io.max_streams + 1) string_of_int in
  let too_many = Invalid_argument "Io: 9 input streams, at most 8 are supported" in
  Alcotest.check_raises "too many streams: input" too_many (fun () ->
      ignore (Vm.Io.input streams));
  Alcotest.check_raises "too many streams: of_input" too_many (fun () ->
      ignore (Vm.Io.of_input { Vm.Io.label = ""; streams; args = [] }));
  let io = Vm.Io.of_input (Vm.Io.input (List.filteri (fun i _ -> i < 8) streams)) in
  Alcotest.(check int) "eighth stream read" (Char.code '7') (Vm.Io.getc io 7)

let suite =
  [
    Alcotest.test_case "intrinsics" `Quick intrinsics;
    Alcotest.test_case "faults" `Quick faults;
    Alcotest.test_case "dynamic counters" `Quick counters;
    Alcotest.test_case "counted arcs are structural" `Quick counted_arcs;
    Alcotest.test_case "memory round trips" `Quick memory_roundtrip;
    Alcotest.test_case "io streams" `Quick io_streams;
  ]
