(* Instruction paging simulation — the paper's first "continuing research"
   direction (section 5): page faults and working-set behavior of the
   instruction stream under different page sizes.

   Two memory models are tracked simultaneously:
   - unbounded memory: faults are compulsory, i.e. the number of distinct
     pages ever touched (the program's instruction footprint in pages);
   - bounded memory with LRU replacement over a fixed number of frames.

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
  resident : (int, int) Hashtbl.t; (* page -> last touch, LRU model *)
  mutable time : int;
  mutable distinct_pages : int;
  mutable lru_faults : int;
  mutable ws_samples : int;
  mutable ws_sum : int;
  mutable ws_max : int;
}

let create cfg =
  if
    cfg.page_bytes <= 0 || cfg.frames <= 0 || cfg.theta <= 0
    || cfg.sample_every <= 0
  then
    invalid_arg "Page_sim.create";
  {
    cfg;
    last_access = Hashtbl.create 256;
    resident = Hashtbl.create 64;
    time = 0;
    distinct_pages = 0;
    lru_faults = 0;
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

(* LRU eviction for the bounded model: drop the least recently touched
   resident page. *)
let evict_lru t =
  let victim = ref (-1) in
  let oldest = ref max_int in
  Hashtbl.iter
    (fun page last ->
      if last < !oldest then begin
        oldest := last;
        victim := page
      end)
    t.resident;
  if !victim >= 0 then Hashtbl.remove t.resident !victim

let access t addr =
  t.time <- t.time + 1;
  let page = addr / t.cfg.page_bytes in
  if not (Hashtbl.mem t.last_access page) then
    t.distinct_pages <- t.distinct_pages + 1;
  Hashtbl.replace t.last_access page t.time;
  (* bounded LRU model *)
  if not (Hashtbl.mem t.resident page) then begin
    t.lru_faults <- t.lru_faults + 1;
    if Hashtbl.length t.resident >= t.cfg.frames then evict_lru t;
    Hashtbl.replace t.resident page t.time
  end
  else Hashtbl.replace t.resident page t.time;
  if t.time mod t.cfg.sample_every = 0 then sample_working_set t

(* Bulk access: [words] consecutive 4-byte instruction fetches starting
   at byte address [addr], equivalent to calling [access] once per word.

   Exactness: split the run at page boundaries.  Within a single-page
   span only that page is touched, so no eviction can trigger after the
   span's first fetch and no other page's stamp changes.  The
   intermediate per-word timestamps are observable only at working-set
   sample ticks, where the current page's stamp equals the tick itself
   — so it suffices to fault/evict once at span start, replay the
   sample ticks that fall inside the span, and write the span's final
   time into both tables. *)
let insn_bytes = 4

let access_run t ~addr ~words =
  let wpp = t.cfg.page_bytes / insn_bytes in
  if wpp <= 0 then
    for k = 0 to words - 1 do
      access t (addr + (k * insn_bytes))
    done
  else begin
    let done_ = ref 0 in
    while !done_ < words do
      let a = addr + (!done_ * insn_bytes) in
      let page = a / t.cfg.page_bytes in
      let word_in_page = a mod t.cfg.page_bytes / insn_bytes in
      let span = min (words - !done_) (wpp - word_in_page) in
      let t0 = t.time in
      if not (Hashtbl.mem t.last_access page) then
        t.distinct_pages <- t.distinct_pages + 1;
      if not (Hashtbl.mem t.resident page) then begin
        t.lru_faults <- t.lru_faults + 1;
        if Hashtbl.length t.resident >= t.cfg.frames then evict_lru t
      end;
      Hashtbl.replace t.resident page (t0 + span);
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
  end

let accesses t = t.time
let distinct_pages t = t.distinct_pages
let lru_faults t = t.lru_faults

let fault_rate t =
  if t.time = 0 then 0. else float_of_int t.lru_faults /. float_of_int t.time

let mean_working_set t =
  if t.ws_samples = 0 then 0.
  else float_of_int t.ws_sum /. float_of_int t.ws_samples

let max_working_set t = t.ws_max
