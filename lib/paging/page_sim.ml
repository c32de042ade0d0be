(* Instruction paging simulation — the paper's first "continuing research"
   direction (section 5): page faults and working-set behavior of the
   instruction stream under different page sizes.

   Two memory models are tracked simultaneously:
   - unbounded memory: faults are compulsory, i.e. the number of distinct
     pages ever touched (the program's instruction footprint in pages);
   - bounded memory with LRU replacement over a fixed number of frames.
     That is the next level of the same instruction-memory hierarchy the
     cache models, so it is an [Icache.Cache]: fully associative, one
     [page_bytes] block per frame, whole-block fill.  A page fault is a
     cache miss.

   The Denning working set |W(t, theta)| — pages referenced in the last
   [theta] accesses — is sampled periodically; we report its mean and
   maximum.  Placement should shrink both: the effective regions of all
   functions are packed into few pages. *)

type config = {
  page_bytes : int;
  frames : int; (* bounded-memory frame count for the LRU model *)
  theta : int; (* working-set window, in accesses *)
  sample_every : int; (* working-set sampling period *)
}

let default_config =
  { page_bytes = 512; frames = 16; theta = 10_000; sample_every = 1_000 }

type t = {
  cfg : config;
  last_access : (int, int) Hashtbl.t; (* page -> time of last access *)
  memory : Icache.Cache.t; (* the bounded LRU model *)
  mutable time : int;
  mutable distinct_pages : int;
  mutable ws_samples : int;
  mutable ws_sum : int;
  mutable ws_max : int;
}

let create cfg =
  if cfg.theta <= 0 || cfg.sample_every <= 0 then invalid_arg "Page_sim.create";
  let memory =
    try
      Icache.Cache.create
        (Icache.Config.make ~assoc:Icache.Config.Full
           ~size:(cfg.frames * cfg.page_bytes) ~block:cfg.page_bytes ())
    with Icache.Config.Invalid _ -> invalid_arg "Page_sim.create"
  in
  {
    cfg;
    last_access = Hashtbl.create 256;
    memory;
    time = 0;
    distinct_pages = 0;
    ws_samples = 0;
    ws_sum = 0;
    ws_max = 0;
  }

let sample_working_set t =
  let horizon = t.time - t.cfg.theta in
  let live = ref 0 in
  Hashtbl.iter
    (fun _page last -> if last > horizon then incr live)
    t.last_access;
  t.ws_samples <- t.ws_samples + 1;
  t.ws_sum <- t.ws_sum + !live;
  if !live > t.ws_max then t.ws_max <- !live

let no_miss ~at:_ ~word_in_block:_ ~fetched_words:_ = ()

(* [words] consecutive 4-byte instruction fetches starting at byte
   address [addr], split at page boundaries.  Within a single-page span
   only that page is touched, so no other page's stamp changes, and the
   LRU model advances by one [Cache.access_run] segment.  The
   intermediate per-word timestamps are observable only at working-set
   sample ticks, where the current page's stamp equals the tick itself
   — so it suffices to replay the sample ticks that fall inside the span
   and then write the span's final time. *)
let access_run t ~addr ~words =
  let wpp = t.cfg.page_bytes / Icache.Config.word_bytes in
  let done_ = ref 0 in
  while !done_ < words do
    let a = addr + (!done_ * Icache.Config.word_bytes) in
    let page = a / t.cfg.page_bytes in
    let word_in_page = a mod t.cfg.page_bytes / Icache.Config.word_bytes in
    let span = Int.min (words - !done_) (wpp - word_in_page) in
    let t0 = t.time in
    if not (Hashtbl.mem t.last_access page) then
      t.distinct_pages <- t.distinct_pages + 1;
    Icache.Cache.access_run t.memory ~addr:a ~words:span ~on_miss:no_miss;
    let se = t.cfg.sample_every in
    let ts = ref (((t0 / se) + 1) * se) in
    while !ts <= t0 + span do
      Hashtbl.replace t.last_access page !ts;
      t.time <- !ts;
      sample_working_set t;
      ts := !ts + se
    done;
    Hashtbl.replace t.last_access page (t0 + span);
    t.time <- t0 + span;
    done_ := !done_ + span
  done

let accesses t = t.time
let distinct_pages t = t.distinct_pages
let lru_faults t = Icache.Cache.misses t.memory

let fault_rate t =
  if t.time = 0 then 0.
  else float_of_int (lru_faults t) /. float_of_int t.time

let mean_working_set t =
  if t.ws_samples = 0 then 0.
  else float_of_int t.ws_sum /. float_of_int t.ws_samples

let max_working_set t = t.ws_max
