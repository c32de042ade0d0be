(* The trace store: every consumer of a recorded execution (driver,
   experiments, memo layer, paging) traffics in this type.

   An execution is captured as the sequence of executed basic blocks,
   function id and label packed into one int.  Instruction fetch is overwhelmingly
   sequential: consecutive executed blocks very often have consecutive
   packed codes (same function, adjacent labels), so the sequence
   compresses first into maximal runs of consecutive codes, each a
   [(code, len)] pair.  A program executes few distinct runs (cmp's
   600K runs are 37 distinct ones), and loops make the run sequence
   repetitive, so the store is a run program, folded once while the VM
   streams:

   - the distinct runs, each interned to a run id as it completes;
   - the distinct windows of at most [max_window] run ids;
   - records, each a window repeated a number of times in a row, as the
     varint [window lsl 1 lor R] followed by [repeat - 2] when flag R is
     set (repeat = 1 otherwise).

   A greedy tandem-repeat folder builds the windows and records from
   the run ids as they arrive.  The two tables are written as varints
   when the recording finishes, so a trace holds two byte strings: cmp's
   702 KB of run-length/delta varints become 6.7 KB.  Decoding
   reproduces the exact code sequence; the folder only groups runs it
   was given.

   A layout changes addresses, not the block sequence, so each address
   map gets a translation of the one fold ([program]): every distinct
   window is translated once, walking its runs' blocks, and every
   record becomes a few span-program records.  That costs
   O(records + windows), not a decode of every block per map.

   Telemetry: every recording bumps three gauges — trace.runs,
   trace.raw_bytes and trace.compressed_bytes.  raw/compressed
   accumulate what the recording would occupy as a plain vector vs what
   it actually stores, so their ratio is the live compression ratio;
   traces are memoized for a whole run and never freed, so the stored
   total is also the peak residency.  A module mutex serializes the
   read-modify-write: recordings can race across domains. *)

type t = {
  tables : Bytes.t; (* varints: run (code, len) pairs, window starts, window run ids *)
  records : Bytes.t;
  nruns : int; (* distinct runs *)
  nwindows : int;
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

(* ------------------------------------------------------------------ *)
(* Varints, vectors and interning tables                               *)
(* ------------------------------------------------------------------ *)

(* Varints are written to a [Buffer.t]; [n >= 0]. *)
let rec put_varint b n =
  if n < 0x80 then Buffer.add_char b (Char.unsafe_chr n)
  else begin
    Buffer.add_char b (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    put_varint b (n lsr 7)
  end

let rec varint_from data pos n shift =
  let byte = Char.code (Bytes.unsafe_get data !pos) in
  incr pos;
  let n = n lor ((byte land 0x7f) lsl shift) in
  if byte < 0x80 then n else varint_from data pos n (shift + 7)

(* Read the varint at [!pos] and move past it. *)
let get_varint data pos = varint_from data pos 0 0

(* Records of the run program and of span programs share one encoding. *)
let put_record v w repeat =
  if repeat = 1 then put_varint v (w lsl 1)
  else begin
    put_varint v ((w lsl 1) lor 1);
    put_varint v (repeat - 2)
  end

let decode_records f data =
  let pos = ref 0 in
  while !pos < Bytes.length data do
    let v = get_varint data pos in
    f (v lsr 1) (if v land 1 = 1 then get_varint data pos + 2 else 1)
  done

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

(* Short int sequences interned by content: sequence [i] is
   [ids.(starts.(i) .. starts.(i + 1) - 1)], found through an
   open-addressing table of [i + 1] (0 = empty), kept at most half full.
   Runs and spans are interned as pairs, windows as their ids. *)
type table = { ids : vec; starts : vec; mutable slots : int array; pair : int array }

let table () =
  {
    ids = vec ();
    starts = { a = Array.make 64 0; n = 1 };
    slots = Array.make 64 0;
    pair = Array.make 2 0;
  }

let seq_hash src off len =
  let h = ref len in
  for i = off to off + len - 1 do
    h := (!h * 65599) + Array.unsafe_get src i
  done;
  let h = !h * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* Whether sequence [id] is [src.(off .. off + len - 1)]. *)
let same tb id src off len =
  let first = tb.starts.a.(id) and k = ref 0 in
  tb.starts.a.(id + 1) - first = len
  && begin
    while !k < len && tb.ids.a.(first + !k) = Array.unsafe_get src (off + !k) do
      incr k
    done;
    !k = len
  end

(* The slot holding that sequence, or the empty slot where it belongs:
   linear probing from its hash. *)
let slot tb src off len =
  let mask = Array.length tb.slots - 1 in
  let i = ref (seq_hash src off len land mask) in
  while tb.slots.(!i) > 0 && not (same tb (tb.slots.(!i) - 1) src off len) do
    i := (!i + 1) land mask
  done;
  !i

let intern tb src off len =
  let i = slot tb src off len in
  if tb.slots.(i) > 0 then tb.slots.(i) - 1
  else begin
    let id = tb.starts.n - 1 in
    for k = off to off + len - 1 do
      vpush tb.ids (Array.unsafe_get src k)
    done;
    vpush tb.starts tb.ids.n;
    tb.slots.(i) <- id + 1;
    if 2 * (id + 1) > Array.length tb.slots then begin
      tb.slots <- Array.make (2 * Array.length tb.slots) 0;
      for j = 0 to id do
        let first = tb.starts.a.(j) in
        let len = tb.starts.a.(j + 1) - first in
        tb.slots.(slot tb tb.ids.a first len) <- j + 1
      done
    end;
    id
  end

(* [intern] of [[| x; y |]] in a table of pairs, where sequence [i] is
   [ids.(2i)], [ids.(2i + 1)].  A run or a span is found with one
   probe, usually, and no generic compare: it inlines [seq_hash]. *)
let intern_pair tb x y =
  let h = ((((2 * 65599) + x) * 65599) + y) * 0x2545F4914F6CDD1D in
  let mask = Array.length tb.slots - 1 and ids = tb.ids.a in
  let i = ref ((h lxor (h lsr 29)) land mask) in
  while
    tb.slots.(!i) > 0
    && (ids.((2 * tb.slots.(!i)) - 2) <> x || ids.((2 * tb.slots.(!i)) - 1) <> y)
  do
    i := (!i + 1) land mask
  done;
  if tb.slots.(!i) > 0 then tb.slots.(!i) - 1
  else begin
    tb.pair.(0) <- x;
    tb.pair.(1) <- y;
    intern tb tb.pair 0 2
  end

(* ------------------------------------------------------------------ *)
(* The tandem-repeat folder                                            *)
(* ------------------------------------------------------------------ *)

(* A data-driven loop walks many runs per iteration: at 8 run ids per
   window grep's trace folds to 649K records and wc's to 141K, at 16 to
   235K and 39K. *)
let max_window = 16

(* How many pending ids the fold sees past the one it commits at:
   enough for every tandem candidate of period <= [max_window] to show
   whether it runs on. *)
let lookahead = 64

(* The greedy tandem-repeat fold.  Run ids queue in [buf]; [fold]
   commits at [lo] while [lookahead] ids follow it:
   - the tandem repeat starting at [lo] (a window of period
     p <= [max_window] copied r >= 2 times in a row) that covers the
     most ids becomes one record; a repeat still running at the end of
     the buffer becomes the active repeat instead, which later ids
     extend one compare each;
   - otherwise [lo] joins the literal window [buf.(lit..lo-1)], written
     as a repeat-1 record once it holds [max_window] ids or a repeat
     follows.
   An id that breaks the active repeat writes the repeat's record and
   queues the partial copy read so far, then itself.

   The builder is the fold's state, plus the pending run ([base], -1 =
   none, and [len]) and the distinct runs, as (code, len) pairs. *)
type builder = {
  mutable base : int;
  mutable len : int;
  runs : table;
  mutable buf : int array;
  mutable lit : int; (* start of the literal window; [lit <= lo] *)
  mutable lo : int;
  mutable hi : int;
  act : int array; (* the active repeat's window *)
  mutable act_len : int; (* 0 = no active repeat *)
  mutable act_rep : int; (* full copies so far *)
  mutable act_pos : int; (* ids of the next copy matched so far *)
  windows : table;
  records : Buffer.t;
}

let emit fl src off len repeat =
  put_record fl.records (intern fl.windows src off len) repeat

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

let builder () =
  {
    base = -1;
    len = 0;
    runs = table ();
    buf = Array.make (4 * lookahead) 0;
    lit = 0;
    lo = 0;
    hi = 0;
    act = Array.make max_window 0;
    act_len = 0;
    act_rep = 0;
    act_pos = 0;
    windows = table ();
    records = Buffer.create 256;
  }

(* Complete the pending run: intern it and feed its id to the folder. *)
let flush b =
  if b.base >= 0 then begin
    feed b (intern_pair b.runs b.base b.len);
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
  end

let finish b (result : Vm.Interp.result) : t =
  flush b;
  if b.act_len > 0 then end_active b;
  fold b ~final:true;
  let tables = Buffer.create 256 in
  List.iter
    (fun v -> Array.iter (put_varint tables) (Array.sub v.a 0 v.n))
    [ b.runs.ids; b.windows.starts; b.windows.ids ];
  {
    tables = Buffer.to_bytes tables;
    records = Buffer.to_bytes b.records;
    nruns = b.runs.starts.n - 1;
    nwindows = b.windows.starts.n - 1;
    result;
  }

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

(* The decoded tables: run [r] is [(runs.(2r), runs.(2r + 1))] as
   (code, len), and window [w] is [ids.(starts.(w) .. starts.(w + 1) - 1)]. *)
let tables t =
  let pos = ref 0 in
  let ints n = Array.init n (fun _ -> get_varint t.tables pos) in
  let runs = ints (2 * t.nruns) in
  let starts = ints (t.nwindows + 1) in
  (runs, starts, ints starts.(t.nwindows))

let iter_windows f t =
  let _, starts, ids = tables t in
  for w = 0 to t.nwindows - 1 do
    f (Array.sub ids starts.(w) (starts.(w + 1) - starts.(w)))
  done

let iter_runs f t =
  let runs, starts, ids = tables t in
  decode_records
    (fun w repeat ->
      for _ = 1 to repeat do
        for i = starts.(w) to starts.(w + 1) - 1 do
          let r = 2 * Array.unsafe_get ids i in
          f ~code:runs.(r) ~len:runs.(r + 1)
        done
      done)
    t.records

let iter_blocks f t =
  iter_runs
    (fun ~code ~len ->
      for c = code to code + len - 1 do
        f (unpack_fid c) (unpack_label c)
      done)
    t

let result t = t.result

(* [f fid label] for every block of one copy of window [w]. *)
let window_blocks (runs, starts, ids) w f =
  for i = starts.(w) to starts.(w + 1) - 1 do
    let r = 2 * ids.(i) in
    for c = runs.(r) to runs.(r) + runs.(r + 1) - 1 do
      f (unpack_fid c) (unpack_label c)
    done
  done

(* The sum, over windows, of [per_copy tables w] times the copies the
   records make of window [w]. *)
let sum_copies t per_copy =
  let tb = tables t and copies = Array.make t.nwindows 0 and total = ref 0 in
  decode_records (fun w repeat -> copies.(w) <- copies.(w) + repeat) t.records;
  Array.iteri (fun w c -> total := !total + (c * per_copy tb w)) copies;
  !total

let block_sum t f =
  sum_copies t (fun tb w ->
      let n = ref 0 in
      window_blocks tb w (fun fid l -> n := !n + f fid l);
      !n)

let dyn_blocks t = block_sum t (fun _ _ -> 1)

let dyn_insns (map : Placement.Address_map.t) t =
  block_sum t (fun fid l -> map.Placement.Address_map.block_words.(fid).(l))

(* ------------------------------------------------------------------ *)
(* Stats and telemetry                                                 *)
(* ------------------------------------------------------------------ *)

type stats = {
  st_runs : int;
  st_blocks : int;
  st_raw_bytes : int; (* plain code-vector footprint of this trace *)
  st_stored_bytes : int; (* what the folded store actually holds *)
}

let stats t =
  let blocks = dyn_blocks t in
  {
    st_runs = sum_copies t (fun (_, starts, _) w -> starts.(w + 1) - starts.(w));
    st_blocks = blocks;
    st_raw_bytes = 8 * blocks;
    st_stored_bytes = Bytes.length t.tables + Bytes.length t.records;
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

(* Recording: the VM streams blocks straight into the folding builder,
   so no raw vector ever exists. *)
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
(* Span programs                                                       *)
(* ------------------------------------------------------------------ *)

type program = {
  span_addr : int array;
  span_words : int array;
  windows : int array;
  window_start : int array;
  records : Bytes.t;
  nrecords : int;
  nspans : int;
}

let contiguous addr words next = addr + (words * Ir.Insn.bytes_per_insn) = next

(* Append span [(a, w)] to a vector of (addr, words) pairs, merging it
   into the last pair when that one ends at [a]. *)
let add_span v a w =
  if v.n > 0 && contiguous v.a.(v.n - 2) v.a.(v.n - 1) a then
    v.a.(v.n - 1) <- v.a.(v.n - 1) + w
  else begin
    vpush v a;
    vpush v w
  end

(* The span-program writer.  Translated records arrive one at a time;
   the latest, [held] repeated [held_rep] times, is held back until the
   next one shows whether the seam between them merges two spans. *)
type writer = {
  spans : table; (* distinct (addr, words) pairs *)
  wins : table; (* distinct windows of span ids *)
  tmp : vec;
  out : Buffer.t;
  mutable nrec : int;
  mutable nsp : int;
  mutable held : int; (* -1 = none *)
  mutable held_rep : int;
}

(* Write the held record, if any, and hold [w] ([-1] for none) instead. *)
let hold wr w repeat =
  let h = wr.held in
  if h >= 0 then begin
    put_record wr.out h wr.held_rep;
    wr.nrec <- wr.nrec + 1;
    wr.nsp <- wr.nsp + ((wr.wins.starts.a.(h + 1) - wr.wins.starts.a.(h)) * wr.held_rep)
  end;
  wr.held <- w;
  wr.held_rep <- repeat

(* The window of [w]'s spans [off .. off + len - 1], with span [at]
   of them replaced by [span] when [at >= 0]. *)
let variant wr w ~off ~len ~at span =
  wr.tmp.n <- 0;
  for i = 0 to len - 1 do
    vpush wr.tmp wr.wins.ids.a.(wr.wins.starts.a.(w) + off + i)
  done;
  if at >= 0 then wr.tmp.a.(at) <- span;
  intern wr.wins wr.tmp.a 0 len

(* Append window [w] repeated [repeat] times, merging spans where one
   ends at the next one's start, as the maximal stream does:
   - when [w]'s last span ends at its first, its copies merge across
     their own seam, so they become a head (all spans but the last),
     [repeat - 1] rotated copies (the merged last-and-first span, then
     the second to the second-to-last) and a tail (the last span);
   - when the held output's last span ends at [w]'s first, the held
     window's last copy is rewritten with its last span absorbing
     [w]'s first, and [w]'s first copy continues from its second span.
   No copy of [w] after that merges with its predecessor: a repeated
   window here never ends where it starts, and a one-span window [s]
   cannot follow a span that ends at [s]'s own end. *)
let rec append wr w repeat =
  let sp = wr.spans.ids.a and ids = wr.wins.ids.a in
  let touches a b = contiguous sp.(2 * a) sp.((2 * a) + 1) sp.(2 * b) in
  let merge a b = intern_pair wr.spans sp.(2 * a) (sp.((2 * a) + 1) + sp.((2 * b) + 1)) in
  let n = wr.wins.starts.a.(w + 1) - wr.wins.starts.a.(w) in
  let first = ids.(wr.wins.starts.a.(w)) and last = ids.(wr.wins.starts.a.(w + 1) - 1) in
  let h = wr.held in
  if repeat > 1 && n > 1 && touches last first then begin
    let rotated = variant wr w ~off:0 ~len:(n - 1) ~at:0 (merge last first) in
    append wr (variant wr w ~off:0 ~len:(n - 1) ~at:(-1) 0) 1;
    append wr rotated (repeat - 1);
    append wr (variant wr w ~off:(n - 1) ~len:1 ~at:(-1) 0) 1
  end
  else if h >= 0 && touches ids.(wr.wins.starts.a.(h + 1) - 1) first then begin
    let hn = wr.wins.starts.a.(h + 1) - wr.wins.starts.a.(h) in
    let merged = merge ids.(wr.wins.starts.a.(h + 1) - 1) first in
    wr.held_rep <- wr.held_rep - 1;
    if wr.held_rep = 0 then wr.held <- -1;
    hold wr (variant wr h ~off:0 ~len:hn ~at:(hn - 1) merged) 1;
    if n > 1 then hold wr (variant wr w ~off:1 ~len:(n - 1) ~at:(-1) 0) 1;
    if repeat > 1 then hold wr w (repeat - 1)
  end
  else hold wr w repeat

(* Translate the run program under [map]: each distinct window into its
   maximal spans, walking its runs' blocks, then each record through
   the writer, which merges the seams.  The program expands to exactly
   the maximal span stream. *)
let translate (map : Placement.Address_map.t) t =
  let tb = tables t in
  let wr =
    {
      spans = table ();
      wins = table ();
      tmp = vec ();
      out = Buffer.create 256;
      nrec = 0;
      nsp = 0;
      held = -1;
      held_rep = 0;
    }
  in
  let m = vec () in
  let plain =
    Array.init t.nwindows (fun w ->
        m.n <- 0;
        window_blocks tb w (fun fid l ->
            (* Zero-word blocks neither extend nor break a span. *)
            let words = map.Placement.Address_map.block_words.(fid).(l) in
            if words > 0 then
              add_span m map.Placement.Address_map.block_addr.(fid).(l) words);
        wr.tmp.n <- 0;
        for k = 0 to (m.n / 2) - 1 do
          vpush wr.tmp (intern_pair wr.spans m.a.(2 * k) m.a.((2 * k) + 1))
        done;
        if wr.tmp.n = 0 then -1 else intern wr.wins wr.tmp.a 0 wr.tmp.n)
  in
  decode_records
    (fun w repeat -> if plain.(w) >= 0 then append wr plain.(w) repeat)
    t.records;
  hold wr (-1) 0;
  let sp = wr.spans in
  {
    span_addr = Array.init (sp.starts.n - 1) (fun i -> sp.ids.a.(2 * i));
    span_words = Array.init (sp.starts.n - 1) (fun i -> sp.ids.a.((2 * i) + 1));
    windows = Array.sub wr.wins.ids.a 0 wr.wins.ids.n;
    window_start = Array.sub wr.wins.starts.a 0 wr.wins.starts.n;
    records = Buffer.to_bytes wr.out;
    nrecords = wr.nrec;
    nspans = wr.nsp;
  }

let program ?(attrs = []) map t =
  Obs.Span.with_ ~stage:"simulate" ~attrs:(("engine", "span-program") :: attrs)
  @@ fun () ->
  let p = translate map t in
  List.iter
    (fun (k, v) -> Obs.Span.add_attr k (string_of_int v))
    [ ("runs", t.nruns); ("windows", t.nwindows); ("records", p.nrecords); ("spans", p.nspans) ];
  p

let iter_records f (p : program) = decode_records f p.records

let iter_spans map f t =
  let p = translate map t in
  iter_records
    (fun w repeat ->
      for _ = 1 to repeat do
        for i = p.window_start.(w) to p.window_start.(w + 1) - 1 do
          let id = p.windows.(i) in
          f p.span_addr.(id) p.span_words.(id)
        done
      done)
    p
