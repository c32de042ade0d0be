(* The per-block span walk, the oracle of the translated span programs:
   one map lookup per executed block, no fold and no seam rule.  It
   takes blocks from any source, so a test can feed it the VM's own
   stream and check the store and its translation at once. *)

type t = {
  map : Placement.Address_map.t;
  f : int -> int -> unit;
  mutable addr : int;
  mutable words : int; (* 0 = no open span *)
}

let create map f = { map; f; addr = 0; words = 0 }

let block w fid l =
  let words = w.map.Placement.Address_map.block_words.(fid).(l) in
  if words > 0 then begin
    let a = w.map.Placement.Address_map.block_addr.(fid).(l) in
    if w.words > 0 && a = w.addr + (w.words * Ir.Insn.bytes_per_insn) then
      w.words <- w.words + words
    else begin
      if w.words > 0 then w.f w.addr w.words;
      w.addr <- a;
      w.words <- words
    end
  end

let finish w = if w.words > 0 then w.f w.addr w.words

let iter map f trace =
  let w = create map f in
  Sim.Trace.iter_blocks (block w) trace;
  finish w
