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

(* A growing byte string of varints. *)
type varints = { mutable bytes : Bytes.t; mutable used : int }

let varints () = { bytes = Bytes.create 256; used = 0 }

let put_varint v n =
  (* n >= 0; at most 10 bytes for a 63-bit int *)
  if v.used + 10 > Bytes.length v.bytes then begin
    let grown = Bytes.create (2 * Bytes.length v.bytes) in
    Bytes.blit v.bytes 0 grown 0 v.used;
    v.bytes <- grown
  end;
  let n = ref n in
  while !n >= 0x80 do
    Bytes.unsafe_set v.bytes v.used (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    v.used <- v.used + 1;
    n := !n lsr 7
  done;
  Bytes.unsafe_set v.bytes v.used (Char.unsafe_chr !n);
  v.used <- v.used + 1

let contents v = Bytes.sub v.bytes 0 v.used

type builder = {
  out : varints;
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
    out = varints ();
    prev = 0;
    base = -1;
    len = 0;
    held_delta = 0;
    held_len = 0;
    held_repeat = 0;
    b_runs = 0;
    b_nblocks = 0;
  }

let write_held b =
  if b.held_repeat > 0 then begin
    let long = b.held_len > 1 and repeated = b.held_repeat > 1 in
    put_varint b.out
      ((zigzag b.held_delta lsl 2)
      lor (Bool.to_int long lsl 1)
      lor Bool.to_int repeated);
    if long then put_varint b.out (b.held_len - 2);
    if repeated then put_varint b.out (b.held_repeat - 2);
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
    data = contents b.out;
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

(* ------------------------------------------------------------------ *)
(* Span programs                                                       *)
(* ------------------------------------------------------------------ *)

(* The span stream under one map, decoded once and folded one level up
   from the run store: a table of the distinct (addr, words) spans, a
   table of the distinct windows of at most [max_window] span ids, and
   records, each a window with a repeat count, as the varint
   [window lsl 1 lor R] followed by [repeat - 2] when flag R is set
   (repeat = 1 otherwise).  Windows dedupe well even where spans fold
   poorly: a data-driven loop's iterations walk one of a few paths, so
   its literal windows recur (wc and grep under the natural layout keep
   ~50 and ~130 distinct windows over 130K and 650K records).  Its
   records follow the input data and do not fold, so a record costs
   one or two bytes rather than an int. *)
type program = {
  span_addr : int array;
  span_words : int array;
  windows : int array;
  window_start : int array;
  records : Bytes.t;
  nrecords : int;
  nspans : int;
}

let max_window = 8

(* How many pending ids the fold sees past the one it commits at:
   enough for every tandem candidate of period <= [max_window] to show
   whether it runs on. *)
let lookahead = 64

(* Growable int vector. *)
type vec = { mutable a : int array; mutable n : int }

let vec () = { a = Array.make 64 0; n = 0 }

let vpush v x =
  if v.n = Array.length v.a then begin
    let grown = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 grown 0 v.n;
    v.a <- grown
  end;
  Array.unsafe_set v.a v.n x;
  v.n <- v.n + 1

let vcontents v = Array.sub v.a 0 v.n

(* Short int sequences interned by content: sequence [i] is
   [ids.(starts.(i) .. starts.(i + 1) - 1)], found through a chained
   hash table over [buckets] (a power of two, doubled as it fills).
   Spans are interned as (addr, words) pairs, windows as their ids. *)
type table = {
  ids : vec;
  starts : vec; (* one more entry than sequences *)
  chain : vec; (* sequence -> next sequence in its bucket, -1 ends *)
  mutable buckets : int array;
}

let table () =
  {
    ids = vec ();
    starts = { a = Array.make 64 0; n = 1 };
    chain = vec ();
    buckets = Array.make 64 (-1);
  }

let seq_hash src off len =
  let h = ref len in
  for i = off to off + len - 1 do
    h := (!h * 65599) + Array.unsafe_get src i
  done;
  !h lxor (!h lsr 17)

let rehash tb =
  let buckets = Array.make (2 * Array.length tb.buckets) (-1) in
  let mask = Array.length buckets - 1 in
  for i = 0 to tb.chain.n - 1 do
    let first = tb.starts.a.(i) in
    let b = seq_hash tb.ids.a first (tb.starts.a.(i + 1) - first) land mask in
    tb.chain.a.(i) <- buckets.(b);
    buckets.(b) <- i
  done;
  tb.buckets <- buckets

let intern tb src off len =
  let b = seq_hash src off len land (Array.length tb.buckets - 1) in
  let i = ref tb.buckets.(b) and found = ref false in
  while !i >= 0 && not !found do
    let first = tb.starts.a.(!i) in
    if tb.starts.a.(!i + 1) - first = len then begin
      let k = ref 0 in
      while
        !k < len && tb.ids.a.(first + !k) = Array.unsafe_get src (off + !k)
      do
        incr k
      done;
      found := !k = len
    end;
    if not !found then i := tb.chain.a.(!i)
  done;
  if !found then !i
  else begin
    let i = tb.chain.n in
    for k = off to off + len - 1 do
      vpush tb.ids (Array.unsafe_get src k)
    done;
    vpush tb.starts tb.ids.n;
    vpush tb.chain tb.buckets.(b);
    tb.buckets.(b) <- i;
    if tb.chain.n > Array.length tb.buckets then rehash tb;
    i
  end

(* The greedy tandem-repeat fold.  Span ids queue in [buf]; [fold]
   commits at [lo] while [lookahead] ids follow it:
   - the tandem repeat starting at [lo] (a window of period p <= 8
     copied r >= 2 times in a row) that covers the most ids becomes one
     record; a repeat still running at the end of the buffer becomes the
     active repeat instead, which later ids extend one compare each;
   - otherwise [lo] joins the literal window [buf.(lit..lo-1)], written
     as a repeat-1 record once it holds [max_window] ids or a repeat
     follows.
   An id that breaks the active repeat writes the repeat's record and
   queues the partial copy read so far, then itself. *)
type folder = {
  mutable buf : int array;
  mutable lit : int; (* start of the literal window; [lit <= lo] *)
  mutable lo : int;
  mutable hi : int;
  act : int array; (* the active repeat's window *)
  mutable act_len : int; (* 0 = no active repeat *)
  mutable act_rep : int; (* full copies so far *)
  mutable act_pos : int; (* ids of the next copy matched so far *)
  windows : table;
  records : varints;
  mutable nrecords : int;
}

let emit fl src off len repeat =
  let w = intern fl.windows src off len in
  if repeat = 1 then put_varint fl.records (w lsl 1)
  else begin
    put_varint fl.records ((w lsl 1) lor 1);
    put_varint fl.records (repeat - 2)
  end;
  fl.nrecords <- fl.nrecords + 1

(* Move the queued ids to the front of [buf], growing it when they fill
   more than half. *)
let compact fl =
  let from = fl.lit in
  let queued = fl.hi - from in
  let dst =
    if 2 * queued > Array.length fl.buf then
      Array.make (2 * Array.length fl.buf) 0
    else fl.buf
  in
  Array.blit fl.buf from dst 0 queued;
  fl.buf <- dst;
  fl.lit <- 0;
  fl.lo <- fl.lo - from;
  fl.hi <- queued

let store fl id =
  if fl.hi = Array.length fl.buf then compact fl;
  Array.unsafe_set fl.buf fl.hi id;
  fl.hi <- fl.hi + 1

(* Commit at [lo] until [lookahead] ids are left, or all of them when
   [final] (no id follows, so no repeat can still be running). *)
let fold fl ~final =
  let buf = fl.buf and hi = fl.hi in
  let stop = if final then hi else hi - lookahead in
  let lo = ref fl.lo and lit = ref fl.lit in
  while fl.act_len = 0 && !lo < stop do
    let lo_ = !lo in
    let x = Array.unsafe_get buf lo_ in
    let best_p = ref 0 and best_cov = ref 0 and best_open = ref false in
    let p = ref 1 in
    while (not !best_open) && !p <= max_window && lo_ + (2 * !p) <= hi do
      let p_ = !p in
      if Array.unsafe_get buf (lo_ + p_) = x then begin
        (* The longest run of queued ids from [lo] with period p. *)
        let k = ref (lo_ + p_ + 1) in
        while
          !k < hi && Array.unsafe_get buf !k = Array.unsafe_get buf (!k - p_)
        do
          incr k
        done;
        let cov = (!k - lo_) / p_ * p_ in
        if cov >= 2 * p_ then
          if (not final) && !k = hi then begin
            best_p := p_;
            best_cov := cov;
            best_open := true
          end
          else if cov > !best_cov then begin
            best_p := p_;
            best_cov := cov
          end
      end;
      incr p
    done;
    let p = !best_p in
    if p = 0 then begin
      lo := lo_ + 1;
      if !lo - !lit = max_window then begin
        emit fl buf !lit max_window 1;
        lit := !lo
      end
    end
    else begin
      if !lit < lo_ then emit fl buf !lit (lo_ - !lit) 1;
      let rep = !best_cov / p in
      if !best_open then begin
        Array.blit buf lo_ fl.act 0 p;
        fl.act_len <- p;
        fl.act_rep <- rep;
        fl.act_pos <- hi - lo_ - !best_cov;
        lo := hi
      end
      else begin
        emit fl buf lo_ p rep;
        lo := lo_ + !best_cov
      end;
      lit := !lo
    end
  done;
  if final && !lit < !lo then begin
    emit fl buf !lit (!lo - !lit) 1;
    lit := !lo
  end;
  fl.lo <- !lo;
  fl.lit <- !lit;
  compact fl

(* Write the active repeat's record and queue its partial copy
   ([store] never touches [act]). *)
let end_active fl =
  emit fl fl.act 0 fl.act_len fl.act_rep;
  fl.act_len <- 0;
  for i = 0 to fl.act_pos - 1 do
    store fl fl.act.(i)
  done

let rec feed fl id =
  if fl.act_len > 0 then begin
    if id = Array.unsafe_get fl.act fl.act_pos then begin
      fl.act_pos <- fl.act_pos + 1;
      if fl.act_pos = fl.act_len then begin
        fl.act_rep <- fl.act_rep + 1;
        fl.act_pos <- 0
      end
    end
    else begin
      end_active fl;
      store fl id
    end
  end
  else if fl.hi < Array.length fl.buf then store fl id
  else begin
    fold fl ~final:false;
    feed fl id
  end

let program (map : Placement.Address_map.t) t =
  Obs.Span.with_ ~stage:"simulate" ~attrs:[ ("engine", "span-program") ]
  @@ fun () ->
  let spans = table () and span = Array.make 2 0 in
  let fl =
    {
      buf = Array.make (4 * lookahead) 0;
      lit = 0;
      lo = 0;
      hi = 0;
      act = Array.make max_window 0;
      act_len = 0;
      act_rep = 0;
      act_pos = 0;
      windows = table ();
      records = varints ();
      nrecords = 0;
    }
  in
  let nspans = ref 0 in
  iter_spans map
    (fun a w ->
      incr nspans;
      span.(0) <- a;
      span.(1) <- w;
      feed fl (intern spans span 0 2))
    t;
  if fl.act_len > 0 then end_active fl;
  fold fl ~final:true;
  {
    span_addr = Array.init spans.chain.n (fun i -> spans.ids.a.(2 * i));
    span_words = Array.init spans.chain.n (fun i -> spans.ids.a.((2 * i) + 1));
    windows = vcontents fl.windows.ids;
    window_start = vcontents fl.windows.starts;
    records = contents fl.records;
    nrecords = fl.nrecords;
    nspans = !nspans;
  }

let iter_records f (p : program) =
  let data = p.records in
  let len = Bytes.length data and pos = ref 0 in
  let varint () =
    let byte = ref (Char.code (Bytes.unsafe_get data !pos)) in
    let n = ref (!byte land 0x7f) and shift = ref 7 in
    incr pos;
    while !byte >= 0x80 do
      byte := Char.code (Bytes.unsafe_get data !pos);
      incr pos;
      n := !n lor ((!byte land 0x7f) lsl !shift);
      shift := !shift + 7
    done;
    !n
  in
  while !pos < len do
    let v = varint () in
    let repeat = if v land 1 = 1 then varint () + 2 else 1 in
    f (v lsr 1) repeat
  done
