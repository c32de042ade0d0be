(* The trace store: every consumer of a recorded execution (driver,
   experiments, memo layer, paging) traffics in this type.

   A run is captured as the sequence of executed basic blocks, function
   id and label packed into one int.  Instruction fetch is overwhelmingly
   sequential: consecutive executed blocks very often have consecutive
   packed codes (same function, adjacent labels), so the sequence
   compresses first into maximal runs of consecutive codes.  Loops then
   make the *run sequence itself* repetitive — every iteration of a
   steady loop body emits a run with the same length and the same delta
   back to the loop head — so consecutive equal-shaped runs collapse
   into one record:

     varint(zigzag(delta) lsl 2 | L lsl 1 | R)
     varint(len - 2)      (only when flag bit L is set; len = 1 otherwise)
     varint(repeat - 2)   (only when flag bit R is set; repeat = 1 otherwise)

   meaning: [repeat] times over, a run of [len] consecutive codes
   starting [delta] after the last code of the previous run (prev = 0
   before the first).  A single-block run break — by far the most common
   record in branchy code — is one ~1-byte varint, a longer run ~2
   bytes, and a steady loop one ~3-byte record for its whole execution,
   against 8 bytes per block for a plain vector of packed codes.

   Decoding reproduces the exact code sequence; the encoder only groups
   numerically consecutive codes and never invents any.

   Telemetry: every recording bumps three gauges — trace.runs,
   trace.raw_bytes and trace.compressed_bytes.  raw/compressed
   accumulate what the recording would occupy as a plain vector vs what
   it actually stores, so their ratio is the live compression ratio;
   traces are memoized for a whole run and never freed, so the stored
   total is also the peak residency.  A module mutex serializes the
   read-modify-write: recordings can race across domains. *)

type t = {
  data : Bytes.t; (* varint run tokens, exactly [Bytes.length data] used *)
  runs : int;
  nblocks : int;
  result : Vm.Interp.result;
}

(* Packing: label in the low bits, function id above.  20 bits allow a
   million blocks per function, far beyond any workload here. *)
let label_bits = 20
let label_mask = (1 lsl label_bits) - 1
let pack fid label = (fid lsl label_bits) lor label
let unpack_fid code = code lsr label_bits
let unpack_label code = code land label_mask

exception Too_many_blocks of string

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

let put_varint b n =
  (* n >= 0; at most 10 bytes for a 63-bit int *)
  if b.pos + 10 > Bytes.length b.buf then begin
    let grown = Bytes.create (2 * Bytes.length b.buf) in
    Bytes.blit b.buf 0 grown 0 b.pos;
    b.buf <- grown
  end;
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
(* Stats and telemetry                                                 *)
(* ------------------------------------------------------------------ *)

type stats = {
  st_runs : int;
  st_blocks : int;
  st_raw_bytes : int; (* plain code-vector footprint of this trace *)
  st_stored_bytes : int; (* what the compressed store actually holds *)
}

let stats t =
  {
    st_runs = t.runs;
    st_blocks = t.nblocks;
    st_raw_bytes = 8 * t.nblocks;
    st_stored_bytes = Bytes.length t.data;
  }

let g_runs =
  Obs.Metrics.gauge "trace.runs"
    ~help:"sequential fetch runs across all recorded traces"

let g_raw =
  Obs.Metrics.gauge "trace.raw_bytes"
    ~help:"plain (8 bytes/block) footprint of all recorded traces"

let g_compressed =
  Obs.Metrics.gauge "trace.compressed_bytes"
    ~help:"bytes actually stored for all recorded traces"

let metrics_lock = Mutex.create ()

let note t =
  if Obs.Metrics.enabled () then begin
    let s = stats t in
    let bump g by =
      Obs.Metrics.set g (Obs.Metrics.gauge_value g +. float_of_int by)
    in
    Mutex.protect metrics_lock (fun () ->
        bump g_runs s.st_runs;
        bump g_raw s.st_raw_bytes;
        bump g_compressed s.st_stored_bytes)
  end

(* Recording: the VM streams blocks straight into the compressing
   builder, so no raw vector ever exists. *)
let record ?fuel (prog : Ir.Prog.program) input : t =
  Array.iter
    (fun (f : Ir.Prog.func) ->
      if Array.length f.blocks > label_mask then
        raise (Too_many_blocks f.name))
    prog.funcs;
  let b = builder () in
  let result =
    Vm.Interp.run ?fuel prog input ~block_sink:(fun fid label ->
        push b (pack fid label))
  in
  let t = finish b result in
  note t;
  t

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

(* One loop decodes every varint of a record in turn: [field] says
   whether the next one is a token (0), a run length (1) or a repeat
   count (2), and [repeat] is 0 while the record has a varint still to
   come.  No local closure captures the cursor, so [pos] and [prev] stay
   unboxed. *)
let iter_runs f t =
  let data = t.data in
  let len = Bytes.length data in
  let pos = ref 0 and prev = ref 0 in
  let field = ref 0 and token = ref 0 and rlen = ref 1 in
  while !pos < len do
    let byte = ref (Char.code (Bytes.unsafe_get data !pos)) in
    let n = ref (!byte land 0x7f) and shift = ref 7 in
    incr pos;
    while !byte >= 0x80 do
      byte := Char.code (Bytes.unsafe_get data !pos);
      incr pos;
      n := !n lor ((!byte land 0x7f) lsl !shift);
      shift := !shift + 7
    done;
    let repeat =
      if !field = 0 then begin
        token := !n;
        rlen := 1;
        if !n land 2 = 2 then (field := 1; 0)
        else if !n land 1 = 1 then (field := 2; 0)
        else 1
      end
      else if !field = 1 then begin
        rlen := !n + 2;
        if !token land 1 = 1 then (field := 2; 0) else (field := 0; 1)
      end
      else (field := 0; !n + 2)
    in
    if repeat > 0 then begin
      let delta = unzigzag (!token lsr 2) and rlen = !rlen in
      for _ = 1 to repeat do
        let base = !prev + delta in
        f ~code:base ~len:rlen;
        prev := base + rlen - 1
      done
    end
  done

let iter_blocks f t =
  iter_runs
    (fun ~code ~len ->
      for c = code to code + len - 1 do
        f (unpack_fid c) (unpack_label c)
      done)
    t

let result t = t.result
let dyn_blocks t = t.nblocks

let dyn_insns (map : Placement.Address_map.t) t =
  let words_of = map.Placement.Address_map.block_words in
  let total = ref 0 in
  iter_blocks (fun fid label -> total := !total + words_of.(fid).(label)) t;
  !total

(* Maximal address-contiguous spans under [map]: a block extends the
   open span when it starts at the span's end address, and zero-word
   blocks fetch nothing, so they neither extend nor break a span.
   Contiguity is decided per block from the map alone.  A compressed
   run holds consecutive labels of one function (every code in it was
   pushed, and a real label never fills the packed label field), so
   each run costs one row lookup per map array. *)
let iter_spans (map : Placement.Address_map.t) f t =
  let addr_of = map.Placement.Address_map.block_addr
  and words_of = map.Placement.Address_map.block_words in
  let span_addr = ref 0 and span_words = ref 0 in
  iter_runs
    (fun ~code ~len ->
      let fid = unpack_fid code and label = unpack_label code in
      let addrs = addr_of.(fid) and words = words_of.(fid) in
      for l = label to label + len - 1 do
        let w = words.(l) in
        if w > 0 then begin
          let a = addrs.(l) in
          let span_end =
            !span_addr + (!span_words * Ir.Insn.bytes_per_insn)
          in
          if !span_words > 0 && a = span_end then
            span_words := !span_words + w
          else begin
            if !span_words > 0 then f !span_addr !span_words;
            span_addr := a;
            span_words := w
          end
        end
      done)
    t;
  if !span_words > 0 then f !span_addr !span_words
