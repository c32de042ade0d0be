(* Run-length/delta-compressed block trace.

   Instruction fetch is overwhelmingly sequential: consecutive executed
   blocks very often have consecutive packed codes (same function,
   adjacent labels), so the block trace compresses first into maximal
   runs of consecutive codes.  Loops then make the *run sequence itself*
   repetitive — every iteration of a steady loop body emits a run with
   the same length and the same delta back to the loop head — so
   consecutive equal-shaped runs collapse into one record:

     varint(zigzag(delta) lsl 2 | L lsl 1 | R)
     varint(len - 2)      (only when flag bit L is set; len = 1 otherwise)
     varint(repeat - 2)   (only when flag bit R is set; repeat = 1 otherwise)

   meaning: [repeat] times over, a run of [len] consecutive codes
   starting [delta] after the last code of the previous run (prev = 0
   before the first).  The optional fields cost nothing when they would
   not help: a single-block run break — by far the most common record
   in branchy code — is one ~1-byte varint, a longer run ~2 bytes, and
   a steady loop one ~3-byte record for its whole execution, against
   8 bytes per block for a plain vector of packed codes.

   Decoding reproduces the exact code sequence, so fid/label unpacking
   is exact even if a run were ever to cross a packing boundary; the
   encoder only groups numerically consecutive codes and never invents
   any. *)

type t = {
  data : Bytes.t; (* varint run tokens, exactly [Bytes.length data] used *)
  runs : int;
  nblocks : int;
  result : Vm.Interp.result;
}

(* ------------------------------------------------------------------ *)
(* Varint / zigzag                                                     *)
(* ------------------------------------------------------------------ *)

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag n = (n lsr 1) lxor (-(n land 1))

(* ------------------------------------------------------------------ *)
(* Builder: a sink that compresses as it goes                          *)
(* ------------------------------------------------------------------ *)

type builder = {
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable prev : int; (* last code of the previous completed run *)
  mutable base : int; (* pending run base; -1 = none *)
  mutable len : int; (* pending run length *)
  (* Completed-but-unwritten record: [held_repeat] runs of shape
     (held_delta, held_len); 0 = none held. *)
  mutable held_delta : int;
  mutable held_len : int;
  mutable held_repeat : int;
  mutable b_runs : int;
  mutable b_nblocks : int;
}

let builder () =
  {
    buf = Bytes.create 4096;
    pos = 0;
    prev = 0;
    base = -1;
    len = 0;
    held_delta = 0;
    held_len = 0;
    held_repeat = 0;
    b_runs = 0;
    b_nblocks = 0;
  }

let ensure b n =
  if b.pos + n > Bytes.length b.buf then begin
    let cap = ref (Bytes.length b.buf) in
    while b.pos + n > !cap do
      cap := !cap * 2
    done;
    let grown = Bytes.create !cap in
    Bytes.blit b.buf 0 grown 0 b.pos;
    b.buf <- grown
  end

let put_varint b n =
  (* n >= 0; at most 9 continuation bytes for a 63-bit int *)
  ensure b 10;
  let n = ref n in
  while !n >= 0x80 do
    Bytes.unsafe_set b.buf b.pos (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    b.pos <- b.pos + 1;
    n := !n lsr 7
  done;
  Bytes.unsafe_set b.buf b.pos (Char.unsafe_chr !n);
  b.pos <- b.pos + 1

let write_held b =
  if b.held_repeat > 0 then begin
    let long = b.held_len > 1 and repeated = b.held_repeat > 1 in
    put_varint b
      ((zigzag b.held_delta lsl 2)
      lor (Bool.to_int long lsl 1)
      lor Bool.to_int repeated);
    if long then put_varint b (b.held_len - 2);
    if repeated then put_varint b (b.held_repeat - 2);
    b.held_repeat <- 0
  end

(* Complete the pending run: absorb it into the held record when it has
   the same shape (the steady-loop case), otherwise emit the held record
   and hold this run as the new candidate. *)
let flush b =
  if b.base >= 0 then begin
    let delta = b.base - b.prev in
    if b.held_repeat > 0 && delta = b.held_delta && b.len = b.held_len then
      b.held_repeat <- b.held_repeat + 1
    else begin
      write_held b;
      b.held_delta <- delta;
      b.held_len <- b.len;
      b.held_repeat <- 1
    end;
    b.prev <- b.base + b.len - 1;
    b.b_runs <- b.b_runs + 1;
    b.base <- -1
  end

(* Push one packed block code (codes are always >= 0, so -1 is a safe
   "no pending run" sentinel). *)
let push b code =
  if b.base >= 0 && code = b.base + b.len then b.len <- b.len + 1
  else begin
    flush b;
    b.base <- code;
    b.len <- 1
  end;
  b.b_nblocks <- b.b_nblocks + 1

let finish b (result : Vm.Interp.result) : t =
  flush b;
  write_held b;
  {
    data = Bytes.sub b.buf 0 b.pos;
    runs = b.b_runs;
    nblocks = b.b_nblocks;
    result;
  }

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let push_block b fid label = push b (Trace_gen.pack fid label)

(* Recording: the VM streams blocks straight into the compressing
   builder, so peak trace residency is the compressed size — no raw
   vector ever exists. *)
let record ?fuel prog input : t =
  let b = builder () in
  let result = Trace_gen.stream ?fuel prog input ~sink:(push_block b) in
  finish b result

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let iter_runs f t =
  let len = Bytes.length t.data in
  let pos = ref 0 in
  let prev = ref 0 in
  let varint () =
    let n = ref 0 and shift = ref 0 and more = ref true in
    while !more do
      let byte = Char.code (Bytes.unsafe_get t.data !pos) in
      incr pos;
      n := !n lor ((byte land 0x7f) lsl !shift);
      shift := !shift + 7;
      more := byte >= 0x80
    done;
    !n
  in
  while !pos < len do
    let token = varint () in
    let delta = unzigzag (token lsr 2) in
    let rlen = if token land 2 = 2 then varint () + 2 else 1 in
    let repeat = if token land 1 = 1 then varint () + 2 else 1 in
    for _ = 1 to repeat do
      let base = !prev + delta in
      f ~code:base ~len:rlen;
      prev := base + rlen - 1
    done
  done

let iter_blocks f t =
  iter_runs
    (fun ~code ~len ->
      for k = 0 to len - 1 do
        let c = code + k in
        f (Trace_gen.unpack_fid c) (Trace_gen.unpack_label c)
      done)
    t

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let result t = t.result
let dyn_blocks t = t.nblocks
let runs t = t.runs
let compressed_bytes t = Bytes.length t.data

(* What a plain vector of the same packed codes would occupy: one 64-bit
   entry per executed block. *)
let raw_bytes t = 8 * t.nblocks

let dyn_insns (map : Placement.Address_map.t) t =
  let words_of = map.Placement.Address_map.block_words in
  let total = ref 0 in
  iter_blocks (fun fid label -> total := !total + words_of.(fid).(label)) t;
  !total
