(* Whole programs: functions plus a static data segment. *)

type func = {
  name : string;
  nparams : int;
  nregs : int;
  blocks : Cfg.block array;
}

type program = {
  funcs : func array;
  entry : int; (* index of the entry function, conventionally "main" *)
  data : (int * Bytes.t) list; (* initialized data segment images *)
  heap_base : int; (* first address past globals, for Alloc *)
  by_name : (string, int) Hashtbl.t;
}

exception Unknown_function of string

let func_index p name =
  match Hashtbl.find_opt p.by_name name with
  | Some i -> i
  | None -> raise (Unknown_function name)

let make ?(data = []) ?(heap_base = 0) ~entry funcs =
  let funcs = Array.of_list funcs in
  let by_name = Hashtbl.create (Array.length funcs * 2) in
  Array.iteri
    (fun i f ->
      if Hashtbl.mem by_name f.name then
        Diag.error ~stage:Diag.Structure ~func:f.name
          "duplicate function name (index %d)" i;
      Hashtbl.add by_name f.name i)
    funcs;
  let entry =
    match Hashtbl.find_opt by_name entry with
    | Some i -> i
    | None -> raise (Unknown_function entry)
  in
  { funcs; entry; data; heap_base; by_name }

(* Rebuild the lookup table after a functional update of [funcs]. *)
let with_funcs p funcs =
  let by_name = Hashtbl.create (Array.length funcs * 2) in
  Array.iteri (fun i f -> Hashtbl.add by_name f.name i) funcs;
  { p with funcs; by_name }

let func_instr_count f =
  Array.fold_left (fun acc b -> acc + Cfg.instr_count b) 0 f.blocks

let func_byte_size f = func_instr_count f * Insn.bytes_per_insn

let total_instr_count p =
  Array.fold_left (fun acc f -> acc + func_instr_count f) 0 p.funcs

let total_byte_size p = total_instr_count p * Insn.bytes_per_insn

let iter_blocks f p =
  Array.iteri
    (fun fid fn -> Array.iteri (fun l b -> f fid fn l b) fn.blocks)
    p.funcs

(* Apply the code-scaling transform of paper section 4.2.3: each block's
   instruction count is scaled by [factor] and rounded to the nearest
   integer.  We clamp at 1 instruction so every block keeps a presence in
   the address space (the paper does not say how it handles rounding to
   zero; a block always retains at least its terminator). *)
let scale_code factor p =
  if factor <= 0. then invalid_arg "Prog.scale_code: factor must be > 0";
  let scale_block b =
    let n = Cfg.instr_count b in
    let scaled = int_of_float (Float.round (float_of_int n *. factor)) in
    { b with Cfg.size_override = Some (max 1 scaled) }
  in
  let scale_func f = { f with blocks = Array.map scale_block f.blocks } in
  with_funcs p (Array.map scale_func p.funcs)
