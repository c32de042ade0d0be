(* Unified instruction-cache simulator.

   One engine covers the paper's whole design space: direct-mapped, N-way
   and fully associative (LRU replacement), with whole-block fill, block
   sectoring, or partial loading.  Validity is tracked per granule: the
   whole block (Whole), a sector (Sectored), or a word (Partial).

   Metrics follow the paper's definitions:
   - miss ratio    = misses / instruction fetches;
   - traffic ratio = 4-byte bus words transferred / instruction fetches
     (each instruction fetch is itself one 4-byte access, so a full 64-byte
     fill is 16 bus accesses — reproducing e.g. cccp's 2.70% miss / 43.13%
     traffic arithmetic). *)

type outcome = {
  miss : bool;
  fetched_words : int; (* bus words transferred for this access *)
  word_in_block : int; (* word offset of the access within its block *)
}

type t = {
  cfg : Config.t;
  words_per_block : int;
  nsets : int;
  ways : int;
  granules : int; (* granules per block *)
  words_per_granule : int;
  tags : int array; (* frame -> resident block number, -1 when empty *)
  valid : Bytes.t; (* frame * granules + granule -> 0/1 *)
  lru : int array; (* frame -> last-touch clock *)
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
  mutable words_fetched : int;
  mutable prefetches : int; (* next-line prefetch fills issued *)
}

let create cfg =
  Config.validate cfg;
  let nsets = Config.nsets cfg in
  let ways = Config.ways_of cfg in
  let granules = Config.granules_per_block cfg in
  let frames = nsets * ways in
  {
    cfg;
    words_per_block = Config.words_per_block cfg;
    nsets;
    ways;
    granules;
    words_per_granule = Config.granule_bytes cfg / Config.word_bytes;
    tags = Array.make frames (-1);
    valid = Bytes.make (frames * granules) '\000';
    lru = Array.make frames 0;
    clock = 0;
    accesses = 0;
    misses = 0;
    words_fetched = 0;
    prefetches = 0;
  }

let granule_valid t frame granule =
  Bytes.unsafe_get t.valid ((frame * t.granules) + granule) <> '\000'

let set_granule t frame granule =
  Bytes.unsafe_set t.valid ((frame * t.granules) + granule) '\001'

let clear_granules t frame =
  Bytes.fill t.valid (frame * t.granules) t.granules '\000'

(* Fetch policy on a miss in [frame] at [granule]: how many granules to
   bring in, starting where. *)
let fill t frame granule =
  match t.cfg.Config.fill with
  | Config.Whole ->
    (* granules = 1 for whole-block fill *)
    set_granule t frame 0;
    t.words_per_block
  | Config.Sectored _ ->
    set_granule t frame granule;
    t.words_per_granule
  | Config.Partial ->
    (* Load from the accessed word to the end of the block or up to a
       valid entry previously loaded in (paper §4.2.2). *)
    let g = ref granule in
    while !g < t.granules && not (granule_valid t frame !g) do
      set_granule t frame !g;
      incr g
    done;
    (!g - granule) * t.words_per_granule

(* Set search: way index of block [block_no] in the set starting at
   frame [base], or -1 when absent.  A tag is the full block number, so
   the probe is one compare per way. *)
let find_way t ~base ~block_no =
  let i = ref 0 in
  while !i < t.ways && Array.unsafe_get t.tags (base + !i) <> block_no do
    incr i
  done;
  if !i < t.ways then !i else -1

(* Victim selection: an empty frame of the set if any, else the LRU one
   (first-scanned frame wins ties). *)
let find_victim t ~base =
  let victim = ref base in
  let i = ref 0 in
  while !i < t.ways do
    let f = base + !i in
    if t.tags.(f) = -1 then begin
      victim := f;
      i := t.ways
    end
    else begin
      if t.lru.(f) < t.lru.(!victim) then victim := f;
      incr i
    end
  done;
  !victim

(* Next-line tagged prefetch: on a miss to block n, also fill block n+1
   if it is absent.  The fill transfers a whole block (counted as traffic
   but not as a miss) and inserts at MRU. *)
let prefetch_next t block_no =
  let nb = block_no + 1 in
  let base = (nb mod t.nsets) * t.ways in
  if find_way t ~base ~block_no:nb < 0 then begin
    let frame = find_victim t ~base in
    t.tags.(frame) <- nb;
    clear_granules t frame;
    set_granule t frame 0;
    t.lru.(frame) <- t.clock;
    t.words_fetched <- t.words_fetched + t.words_per_block;
    t.prefetches <- t.prefetches + 1
  end

let access t addr =
  t.accesses <- t.accesses + 1;
  t.clock <- t.clock + 1;
  let block_no = addr / t.cfg.Config.block in
  let offset = addr mod t.cfg.Config.block in
  let granule = offset / Config.granule_bytes t.cfg in
  let word_in_block = offset / Config.word_bytes in
  let base = (block_no mod t.nsets) * t.ways in
  let way = find_way t ~base ~block_no in
  if way >= 0 then begin
    let frame = base + way in
    t.lru.(frame) <- t.clock;
    if granule_valid t frame granule then
      { miss = false; fetched_words = 0; word_in_block }
    else begin
      (* Tag present but granule absent: sector/partial miss. *)
      t.misses <- t.misses + 1;
      let w = fill t frame granule in
      t.words_fetched <- t.words_fetched + w;
      { miss = true; fetched_words = w; word_in_block }
    end
  end
  else begin
    (* Full miss: victimize an empty frame or the LRU one. *)
    t.misses <- t.misses + 1;
    let frame = find_victim t ~base in
    t.tags.(frame) <- block_no;
    clear_granules t frame;
    t.lru.(frame) <- t.clock;
    let w = fill t frame granule in
    t.words_fetched <- t.words_fetched + w;
    if t.cfg.Config.prefetch then prefetch_next t block_no;
    { miss = true; fetched_words = w; word_in_block }
  end

(* A segment of a run whose block is resident in [frame] under sectored
   or partial fill: misses can only come from invalid granules.  [at] is
   the run index of the segment's first word, [wib] that word's offset
   in the block.  (A resident whole-fill block hits throughout.) *)
let resident_sectors t frame ~at ~wib ~seg_len ~on_miss =
  let wpg = t.words_per_granule in
  for g = wib / wpg to (wib + seg_len - 1) / wpg do
    if not (granule_valid t frame g) then begin
      t.misses <- t.misses + 1;
      set_granule t frame g;
      t.words_fetched <- t.words_fetched + wpg;
      let miss_word = Int.max wib (g * wpg) in
      on_miss ~at:(at + miss_word - wib) ~word_in_block:miss_word
        ~fetched_words:wpg
    end
  done

let resident_words t frame ~at ~wib ~seg_len ~on_miss =
  let last = wib + seg_len - 1 in
  let p = ref wib in
  while !p <= last do
    if granule_valid t frame !p then incr p
    else begin
      t.misses <- t.misses + 1;
      let fetched = fill t frame !p in
      t.words_fetched <- t.words_fetched + fetched;
      on_miss ~at:(at + !p - wib) ~word_in_block:!p ~fetched_words:fetched;
      (* The fill covered [!p .. !p + fetched - 1]: all hits. *)
      p := !p + fetched
    end
  done

(* One segment of a run whose block [block_no] is absent: a full miss at
   the segment's first word, at clock [c0].  Returns the filled frame. *)
let missing_segment t ~base ~block_no ~c0 ~at ~wib ~seg_len ~on_miss =
  t.misses <- t.misses + 1;
  let frame = find_victim t ~base in
  t.tags.(frame) <- block_no;
  clear_granules t frame;
  t.lru.(frame) <- c0;
  let wpg = t.words_per_granule in
  let fetched = fill t frame (wib / wpg) in
  t.words_fetched <- t.words_fetched + fetched;
  on_miss ~at ~word_in_block:wib ~fetched_words:fetched;
  if t.cfg.Config.prefetch then begin
    (* The prefetched line is stamped at the missing access' clock. *)
    t.clock <- c0;
    prefetch_next t block_no
  end;
  (* The rest of the segment: Whole filled the block and Partial filled
     through to the block end, so every further word hits; Sectored
     misses once on each further sector touched. *)
  (match t.cfg.Config.fill with
  | Config.Whole | Config.Partial -> ()
  | Config.Sectored _ ->
    for g = (wib / wpg) + 1 to (wib + seg_len - 1) / wpg do
      t.misses <- t.misses + 1;
      set_granule t frame g;
      t.words_fetched <- t.words_fetched + wpg;
      on_miss ~at:(at + (g * wpg) - wib) ~word_in_block:(g * wpg)
        ~fetched_words:wpg
    done);
  frame

(* Bulk access: simulate [words] consecutive 4-byte fetches starting at
   [addr] — one basic block's sequential run — with one tag probe per
   *cache block* touched instead of one per word.  Exactly equivalent to
   calling [access] on each word in turn: counters, validity, LRU state
   and prefetch behavior all match bit for bit.

   [on_miss] is invoked, in address order, for every fetch that [access]
   would have reported as a miss; [at] is the word index within the run.
   Words not reported are hits.

   Hit-path cost: the run's first block number and set are divided out
   once per call; every later segment starts at word 0 of the next
   block, whose set is the previous one plus one, wrapping at [nsets].
   Tags hold the full block number, so a resident block costs one tag
   compare per way probed plus the LRU stamp.

   Why the tail arithmetic is exact, per fill policy:
   - Whole: a tag hit means the whole block is resident (a frame's tag is
     only ever installed together with a full fill or prefetch), so every
     word of the segment hits without a validity check; on a tag miss
     only the first word misses and the rest stream out of the freshly
     filled block.
   - Sectored: validity is per sector, so within a segment exactly the
     first word touched in each invalid sector misses (fetching one
     sector), and every other word hits.
   - Partial: a fill loads from the missed word up to the next valid word
     or the block end, so the words a fill covers are hits until the scan
     reaches the next invalid word; on a tag miss the whole tail of the
     block is loaded and the rest of the segment hits.

   LRU exactness: word-granular [access] stamps the frame's LRU with the
   clock of every word; only the *last* stamp can be observed by later
   victim selections, so stamping once with the clock of the segment's
   last word preserves every replacement decision.  Victim selection and
   prefetch happen at the clock of the segment's first word, as in the
   word-granular engine. *)
let access_run t ~addr ~words ~on_miss =
  let wpb = t.words_per_block in
  let first_word = addr / Config.word_bytes in
  let block_no = ref (first_word / wpb) in
  let wib = ref (first_word - (!block_no * wpb)) in
  let set = ref (!block_no mod t.nsets) in
  let at = ref 0 in
  while !at < words do
    (* The segment: the part of the run inside this cache block. *)
    let seg_len = Int.min (words - !at) (wpb - !wib) in
    let c0 = t.clock + 1 in
    let base = !set * t.ways in
    let way = find_way t ~base ~block_no:!block_no in
    let frame =
      if way >= 0 then begin
        let frame = base + way in
        (match t.cfg.Config.fill with
        | Config.Whole -> ()
        | Config.Sectored _ ->
          resident_sectors t frame ~at:!at ~wib:!wib ~seg_len ~on_miss
        | Config.Partial ->
          resident_words t frame ~at:!at ~wib:!wib ~seg_len ~on_miss);
        frame
      end
      else
        missing_segment t ~base ~block_no:!block_no ~c0 ~at:!at ~wib:!wib
          ~seg_len ~on_miss
    in
    t.accesses <- t.accesses + seg_len;
    t.clock <- c0 + seg_len - 1;
    Array.unsafe_set t.lru frame t.clock;
    at := !at + seg_len;
    incr block_no;
    wib := 0;
    set := if !set + 1 = t.nsets then 0 else !set + 1
  done

(* [words] more fetches that replay, in the same order, a sequence of
   fetches which just all hit: a hit fills, evicts and prefetches
   nothing, and re-stamping the same frames in the same order leaves
   every set's LRU order as it is, so only the access count moves.  The
   clock stays put: victims depend only on the relative order of
   stamps. *)
let skip_hits t words = t.accesses <- t.accesses + words

let miss_ratio t =
  if t.accesses = 0 then 0.
  else float_of_int t.misses /. float_of_int t.accesses

let traffic_ratio t =
  if t.accesses = 0 then 0.
  else float_of_int t.words_fetched /. float_of_int t.accesses

let avg_fetch_words t =
  if t.misses = 0 then 0.
  else float_of_int t.words_fetched /. float_of_int t.misses

let accesses t = t.accesses
let misses t = t.misses
let words_fetched t = t.words_fetched
let prefetches t = t.prefetches

(* Internal consistency (used by property tests): a frame with an invalid
   tag has no valid granules. *)
let invariant t =
  let ok = ref true in
  Array.iteri
    (fun frame tag ->
      if tag = -1 then
        for granule = 0 to t.granules - 1 do
          if granule_valid t frame granule then ok := false
        done)
    t.tags;
  !ok
