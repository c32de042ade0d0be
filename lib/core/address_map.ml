(* Address assignment: turns the per-function block orders and the global
   function order into concrete instruction-memory addresses.  This map is
   what the trace generator consults to expand executed blocks into
   instruction-fetch addresses. *)

open Ir

type t = {
  block_addr : int array array; (* [fid].(label) -> byte address *)
  block_words : int array array; (* [fid].(label) -> instruction count *)
  total_bytes : int;
  effective_bytes : int;
}

let code_base = 0

let words_of (p : Prog.program) =
  Array.map
    (fun (f : Prog.func) -> Array.map Cfg.instr_count f.blocks)
    p.funcs

(* Optimized placement: the effective regions of all functions in global
   order first, then the non-executed regions in the same order (paper
   step 5: only the effective part needs to fit in cache/main memory). *)
let build (p : Prog.program) ~(layouts : Func_layout.t array)
    ~(order : Global_layout.t) : t =
  let block_words = words_of p in
  let block_addr =
    Array.map (fun (f : Prog.func) -> Array.make (Array.length f.blocks) 0) p.funcs
  in
  let cursor = ref code_base in
  let place fid labels =
    Array.iter
      (fun l ->
        block_addr.(fid).(l) <- !cursor;
        cursor := !cursor + (block_words.(fid).(l) * Insn.bytes_per_insn))
      labels
  in
  Array.iter
    (fun fid ->
      let lay = layouts.(fid) in
      place fid (Array.sub lay.Func_layout.order 0 lay.Func_layout.active_blocks))
    order.Global_layout.order;
  let effective_bytes = !cursor - code_base in
  Array.iter
    (fun fid ->
      let lay = layouts.(fid) in
      let rest =
        Array.sub lay.Func_layout.order lay.Func_layout.active_blocks
          (Array.length lay.Func_layout.order - lay.Func_layout.active_blocks)
      in
      place fid rest)
    order.Global_layout.order;
  {
    block_addr;
    block_words;
    total_bytes = !cursor - code_base;
    effective_bytes;
  }

(* Unoptimized baseline: functions in definition order, blocks in original
   label order.  [effective_bytes] is reported as the full size since the
   natural layout does not separate executed from dead code. *)
let natural (p : Prog.program) : t =
  let block_words = words_of p in
  let block_addr =
    Array.map (fun (f : Prog.func) -> Array.make (Array.length f.blocks) 0) p.funcs
  in
  let cursor = ref code_base in
  Array.iteri
    (fun fid (f : Prog.func) ->
      Array.iteri
        (fun l _ ->
          block_addr.(fid).(l) <- !cursor;
          cursor := !cursor + (block_words.(fid).(l) * Insn.bytes_per_insn))
        f.blocks)
    p.funcs;
  {
    block_addr;
    block_words;
    total_bytes = !cursor - code_base;
    effective_bytes = !cursor - code_base;
  }
