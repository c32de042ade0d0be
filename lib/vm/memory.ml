(* Flat byte-addressable data memory with growth on demand.

   Addresses below [Ir.Lower.globals_base] are unmapped: accessing them is
   a null-pointer-style fault, which catches workload bugs early. *)

exception Fault of string

let fault fmt = Fmt.kstr (fun s -> raise (Fault s)) fmt

type t = { mutable data : Bytes.t }

let limit = 64 * 1024 * 1024

let create initial_size = { data = Bytes.make (max initial_size 4096) '\000' }

let ensure t addr len =
  if addr < Ir.Lower.globals_base then
    fault "access to unmapped low address %d" addr;
  let needed = addr + len in
  if needed > limit then fault "address %d beyond memory limit %d" addr limit;
  let cur = Bytes.length t.data in
  if needed > cur then begin
    let size = ref cur in
    while !size < needed do
      size := !size * 2
    done;
    let bigger = Bytes.make (min !size limit) '\000' in
    Bytes.blit t.data 0 bigger 0 cur;
    t.data <- bigger
  end

let load_image t (addr, image) =
  ensure t addr (Bytes.length image);
  Bytes.blit image 0 t.data addr (Bytes.length image)

let of_program (p : Ir.Prog.program) =
  let t = create (p.heap_base + 65536) in
  List.iter (load_image t) p.data;
  t

let read8 t addr =
  ensure t addr 1;
  Char.code (Bytes.get t.data addr)

let write8 t addr value =
  ensure t addr 1;
  Bytes.set t.data addr (Char.chr (value land 0xff))

let read32 t addr =
  ensure t addr 4;
  Int32.to_int (Bytes.get_int32_le t.data addr)

let write32 t addr value =
  ensure t addr 4;
  Bytes.set_int32_le t.data addr (Int32.of_int value)
