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

(* A program whose main is built straight from CFG blocks, for shapes
   the AST cannot express (wrong-arity intrinsics, calls to absent
   functions, blocks that never run). *)
let cfg_prog ?(funcs = []) blocks =
  Ir.Prog.make ~heap_base:8192 ~entry:"main"
    ({ Ir.Prog.name = "main"; nparams = 0; nregs = 4; blocks = Array.of_list blocks }
    :: funcs)

let blk insns term = Ir.Cfg.mk_block (Array.of_list insns) term

(* Every VM fault is pinned by exception and message: the engine may
   change, what a faulting program observes may not. *)
let faults () =
  let raises ?fuel name exn prog =
    Alcotest.check_raises name exn (fun () ->
        ignore (Vm.Interp.run ?fuel prog (Vm.Io.input [])))
  in
  let raises_ast name exn body = raises name exn (Ir.Lower.program (main_prog body)) in
  let vm_fault s = Vm.Interp.Fault s and mem_fault s = Vm.Memory.Fault s in
  raises_ast "div by zero" (vm_fault "division by zero")
    [ decl "z" (i 0); ret (i 1 /% v "z") ];
  raises_ast "rem by zero" (vm_fault "division by zero")
    [ decl "z" (i 0); ret (i 1 %% v "z") ];
  (* Each operand shape of a division reaches the same check. *)
  List.iter
    (fun (name, insn) ->
      raises name (vm_fault "division by zero") (cfg_prog [ blk [ insn ] (Ret None) ]))
    [
      ("div reg by imm zero", Ir.Insn.Bin (Div, 1, Reg 0, Imm 0));
      ("rem reg by imm zero", Ir.Insn.Bin (Rem, 1, Reg 0, Imm 0));
      ("div reg by reg zero", Ir.Insn.Bin (Div, 1, Reg 0, Reg 1));
      ("rem imm by reg zero", Ir.Insn.Bin (Rem, 1, Imm 5, Reg 1));
    ];
  raises_ast "null load" (mem_fault "access to unmapped low address 0")
    [ ret (ld8 (i 0)) ];
  raises_ast "null store" (mem_fault "access to unmapped low address 12")
    [ st32 (i 12) (i 1); ret0 ];
  raises_ast "abort" (vm_fault "abort intrinsic executed")
    [ Ir.Ast.Expr (Ir.Ast.Intrin (Ir.Insn.Abort, [])); ret0 ];
  (* Memory ends at 64 MiB: a byte at the limit, or a word straddling
     it, is out of range. *)
  let limit = 64 * 1024 * 1024 in
  raises_ast "load at the memory limit"
    (mem_fault (Printf.sprintf "address %d beyond memory limit %d" limit limit))
    [ ret (ld8 (i limit)) ];
  raises_ast "store straddling the memory limit"
    (mem_fault
       (Printf.sprintf "address %d beyond memory limit %d" (limit - 2) limit))
    [ st32 (i (limit - 2)) (i 1); ret0 ];
  raises "wrong-arity intrinsic" (vm_fault "intrinsic getc: wrong arity")
    (cfg_prog [ blk [ Ir.Insn.Intrin (Ir.Insn.Getc, Some 0, []) ] (Ret None) ]);
  raises "wrong-arity putc" (vm_fault "intrinsic putc: wrong arity")
    (cfg_prog [ blk [ Ir.Insn.Intrin (Ir.Insn.Putc, None, [ Imm 0 ]) ] (Ret None) ]);
  raises "call to an absent function" (Ir.Prog.Unknown_function "absent")
    (cfg_prog
       [
         blk []
           (Call { callee = "absent"; args = []; dst = None; ret_to = 1 });
         blk [] (Ret None);
       ]);
  (* Fuel: the message carries the instructions executed, counted up to
     and including the block whose charge ran the fuel out. *)
  raises ~fuel:1000 "fuel exhaustion"
    (vm_fault "out of fuel (1001 instructions executed)")
    (Ir.Lower.program (main_prog [ while_ (i 1) []; ret0 ]))

(* A fault is raised when its instruction executes, never earlier: a
   block that never runs and a function that is never called may hold
   any faulting instruction or terminator. *)
let dormant_faults () =
  let faulty =
    [
      Ir.Insn.Bin (Div, 1, Imm 1, Imm 0);
      Ir.Insn.Bin (Rem, 1, Reg 0, Reg 0);
      Ir.Insn.Intrin (Ir.Insn.Getc, Some 1, []);
      Ir.Insn.Intrin (Ir.Insn.Abort, None, []);
      Ir.Insn.Load8 (1, Imm 0, Imm 0);
      Ir.Insn.Store32 (Imm 64, Imm 0, Imm 0);
    ]
  in
  let dead =
    { Ir.Prog.name = "dead"; nparams = 0; nregs = 2; blocks = [| blk faulty (Ret None) |] }
  in
  let p =
    cfg_prog ~funcs:[ dead ]
      [
        blk [] (Br (Reg 0, 1, 2));
        blk faulty (Call { callee = "absent"; args = []; dst = None; ret_to = 2 });
        blk [ Ir.Insn.Mov (2, Imm 7) ] (Ret (Some (Reg 2)));
      ]
  in
  let r = Vm.Interp.run p (Vm.Io.input []) in
  Alcotest.(check int) "dormant faults stay dormant" 7 r.Vm.Interp.return_value;
  Alcotest.(check int) "two blocks ran" 2 r.Vm.Interp.dyn_blocks

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

(* {1 The matching oracle}

   [Interp_oracle] is the matching interpreter the VM replaced.  Both
   engines must agree on everything a run shows its caller: return
   value, dynamic totals, outputs, every block count, the arc and call
   sequences, the [block_sink] stream and, on a fault, the exception and
   its message. *)

type outcome = {
  value : int;
  totals : int list; (* dyn_insns, dyn_blocks, dyn_calls, dyn_branches *)
  outputs : string list;
  block_counts : int array list;
  arcs : (int * int * int * int) list;
  calls : (int * int * int * int) list;
}

let collect iter =
  let acc = ref [] in
  iter (fun a b c d -> acc := (a, b, c, d) :: !acc);
  List.rev !acc

let outcome (p : Ir.Prog.program) ~value ~totals ~io ~block_count ~arcs ~calls =
  {
    value;
    totals;
    outputs = List.init Vm.Io.max_streams (Vm.Io.output io);
    block_counts =
      Array.to_list
        (Array.mapi
           (fun fid (f : Ir.Prog.func) ->
             Array.init (Array.length f.blocks) (block_count fid))
           p.funcs);
    arcs = collect arcs;
    calls = collect calls;
  }

let of_vm p (r : Vm.Interp.result) =
  outcome p ~value:r.return_value
    ~totals:[ r.dyn_insns; r.dyn_blocks; r.dyn_calls; r.dyn_branches ]
    ~io:r.io ~block_count:(Vm.Interp.block_count r.counts)
    ~arcs:(Vm.Interp.iter_arcs r.counts) ~calls:(Vm.Interp.iter_calls r.counts)

let of_oracle p (r : Interp_oracle.result) =
  outcome p ~value:r.return_value
    ~totals:[ r.dyn_insns; r.dyn_blocks; r.dyn_calls; r.dyn_branches ]
    ~io:r.io ~block_count:(Interp_oracle.block_count r.counts)
    ~arcs:(Interp_oracle.iter_arcs r.counts)
    ~calls:(Interp_oracle.iter_calls r.counts)

(* One block of the sink stream as a single int. *)
let code fid l = (fid lsl 32) lor l

(* Run the oracle, recording its block stream, then the VM, checking its
   stream against the recording as it goes (a workload's stream is
   millions of blocks).  Returns the oracle's outcome, so callers can
   choose a fuel that faults. *)
let same_as_oracle ?fuel name p input =
  let stream = Buffer.create 4096 in
  let guard f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
  let want =
    guard (fun () ->
        of_oracle p
          (Interp_oracle.run ?fuel p input ~block_sink:(fun fid l ->
               Buffer.add_int64_le stream (Int64.of_int (code fid l)))))
  in
  let stream = Buffer.to_bytes stream in
  let n = Bytes.length stream / 8 in
  let pos = ref 0 and diverged = ref (-1) in
  let got =
    guard (fun () ->
        of_vm p
          (Vm.Interp.run ?fuel p input ~block_sink:(fun fid l ->
               if
                 !diverged < 0
                 && (!pos >= n
                    || Int64.to_int (Bytes.get_int64_le stream (!pos * 8))
                       <> code fid l)
               then diverged := !pos;
               incr pos)))
  in
  let fail what = Alcotest.failf "%s (%s): %s differ" name input.Vm.Io.label what in
  if !diverged >= 0 then fail (Printf.sprintf "block streams (at block %d)" !diverged);
  if !pos <> n then fail "block stream lengths";
  (match (want, got) with
  | Error w, Error g -> if w <> g then fail (Printf.sprintf "faults (%s vs %s)" w g)
  | Ok _, Error g -> fail ("outcomes (the VM raised " ^ g ^ ")")
  | Error w, Ok _ -> fail ("outcomes (the oracle raised " ^ w ^ ")")
  | Ok w, Ok g ->
    if w.value <> g.value then fail "return values";
    if w.totals <> g.totals then fail "dyn_* totals";
    if w.outputs <> g.outputs then fail "outputs";
    if w.block_counts <> g.block_counts then fail "block counts";
    if w.arcs <> g.arcs then fail "iter_arcs sequences";
    if w.calls <> g.calls then fail "iter_calls sequences");
  want

let prop_oracle =
  QCheck.Test.make ~name:"VM equals the matching oracle" ~count:40
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let p = Ir.Lower.program (Gen_prog.generate seed) in
      let name = Printf.sprintf "seed %d" seed in
      let first =
        same_as_oracle ~fuel:50_000_000 name p (Vm.Io.input ~label:"empty" [])
      in
      ignore
        (same_as_oracle ~fuel:50_000_000 name p
           (Vm.Io.input ~label:"args" ~args:[ 3 ] [ "input" ]));
      (* Half the fuel the first run needed: the run must fault, at the
         same block and with the same instruction count. *)
      (match first with
      | Ok { totals = insns :: _; _ } when insns >= 2 ->
        (match
           same_as_oracle ~fuel:(insns / 2) name p
             (Vm.Io.input ~label:"low fuel" [])
         with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "%s: half the fuel did not fault" name)
      | _ -> ());
      true)

let oracle_workloads () =
  List.iter
    (fun b ->
      let p = Workloads.Bench.program b in
      List.iter
        (fun input -> ignore (same_as_oracle b.Workloads.Bench.name p input))
        (Workloads.Bench.profile_inputs b))
    Workloads.Registry.all

let memory_roundtrip () =
  let m = Vm.Memory.of_program (Ir.Lower.program (main_prog [ ret0 ])) in
  Vm.Memory.write32 m 8192 0x12345678;
  Alcotest.(check int) "read32" 0x12345678 (Vm.Memory.read32 m 8192);
  Vm.Memory.write8 m 8192 0xff;
  Alcotest.(check int) "write8 modifies low byte" 0x123456ff
    (Vm.Memory.read32 m 8192);
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
    Alcotest.test_case "unexecuted faults never fire" `Quick dormant_faults;
    Alcotest.test_case "dynamic counters" `Quick counters;
    Alcotest.test_case "counted arcs are structural" `Quick counted_arcs;
    Alcotest.test_case "memory round trips" `Quick memory_roundtrip;
    Alcotest.test_case "io streams" `Quick io_streams;
    QCheck_alcotest.to_alcotest prop_oracle;
    Alcotest.test_case "oracle: every workload" `Slow oracle_workloads;
  ]
