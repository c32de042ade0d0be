(* Miss-penalty timing model (paper section 4.2.1).

   The memory is interleaved and delivers one 4-byte word per cycle after
   an initial access delay.  Three refill disciplines are modeled:

   - [Blocking]: the CPU stalls until the whole block has been
     transferred.
   - [Streaming]: load forwarding + early continuation + streaming over a
     whole-block fill that starts at the beginning of the block.  The CPU
     waits for the words in front of the missed word, resumes, and streams
     sequential fetches off the bus; a taken branch before the fill
     completes stalls until the transfer finishes.
   - [Streaming_partial]: same, but the fill starts at the missed word
     (partial loading), so the initial wait is just the memory latency.

   The per-miss inputs are the word offset of the miss within its block
   and the number of consecutive sequential words the CPU consumed after
   the miss before a taken branch or the next miss — exactly what the
   simulation driver already tracks for the avg.exec statistic. *)

type policy =
  | Blocking
  | Streaming
  | Streaming_partial

type model = { hit_cycles : int; mem_latency : int }

let default_model = { hit_cycles = 1; mem_latency = 10 }

(* Stall cycles (beyond the normal hit time) for one miss. *)
let miss_stall model policy ~words_per_block ~word_in_block ~run_words
    ~fetched_words =
  let lat = model.mem_latency in
  match policy with
  | Blocking -> lat + words_per_block
  | Streaming ->
    (* Fill transfers the whole block from word 0; the missed word arrives
       after [lat + word_in_block + 1] cycles.  If control leaves the
       block before the fill completes, the CPU waits out the rest. *)
    let initial = lat + word_in_block in
    let consumed = min run_words (words_per_block - word_in_block) in
    let fill_done = lat + words_per_block in
    let leave_time = lat + word_in_block + consumed in
    let tail = if consumed < words_per_block - word_in_block then
        max 0 (fill_done - leave_time)
      else 0
    in
    initial + tail
  | Streaming_partial ->
    (* Fill starts at the missed word; [fetched_words] were transferred. *)
    let initial = lat in
    let consumed = min run_words fetched_words in
    let fill_done = lat + fetched_words in
    let leave_time = lat + consumed in
    let tail =
      if consumed < fetched_words then max 0 (fill_done - leave_time) else 0
    in
    initial + tail

type t = {
  model : model;
  policy : policy;
  mutable accesses : int;
  mutable stall_cycles : int;
  mutable misses : int;
}

let create ?(model = default_model) policy =
  { model; policy; accesses = 0; stall_cycles = 0; misses = 0 }

let on_hit t = t.accesses <- t.accesses + 1

(* Bulk accounting for the block-granular engine: [n] hits at once. *)
let on_hits t n = t.accesses <- t.accesses + n

let on_miss t ~words_per_block ~word_in_block ~run_words ~fetched_words =
  t.accesses <- t.accesses + 1;
  t.misses <- t.misses + 1;
  t.stall_cycles <-
    t.stall_cycles
    + miss_stall t.model t.policy ~words_per_block ~word_in_block ~run_words
        ~fetched_words

(* Mean cycles per instruction fetch. *)
let effective_access_time t =
  if t.accesses = 0 then float_of_int t.model.hit_cycles
  else
    float_of_int ((t.accesses * t.model.hit_cycles) + t.stall_cycles)
    /. float_of_int t.accesses
