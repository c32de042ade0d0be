(* Trace-driven simulation driver.

   Replays a stored block trace, expanded through an address map, into
   cache configurations, tracking the paper's metrics:

   - miss ratio and memory-traffic ratio (from the cache simulator);
   - avg.exec: mean consecutive instructions used from a cache miss to a
     taken branch or the next miss (Table 8);
   - avg.fetch: mean 4-byte entities transferred per miss (Table 8);
   - effective access time under the three refill timing policies.

   [replay] is the one engine (through [simulate], or through the
   context's memoized span programs): it walks a span program
   ([Trace.program], the trace's fold translated once under a map), one
   [Icache.Cache.access_run] per span walked per configuration, and
   accounts a repeated window's copies after its first all-hit copy in
   bulk, since they change no cache or run state.  Its results are
   bit-identical to the word-granular reference [Oracle.Word_sim], which
   sends every fetch through [Icache.Cache.access] (property-tested in
   test/test_fast_sim.ml, pinned on every benchmark in
   test/test_stream.ml, and checked per seed by the fuzzer). *)

type result = {
  config : Icache.Config.t;
  accesses : int;
  misses : int;
  words_fetched : int;
  miss_ratio : float;
  traffic_ratio : float;
  avg_fetch_words : float;
  avg_exec_insns : float;
  eat_blocking : float; (* effective access time, cycles per fetch *)
  eat_streaming : float;
  eat_streaming_partial : float;
}

(* Telemetry: per-configuration cache counters, labelled with the
   configuration's human description, accumulated across every
   simulation (the word-granular reference records its results here
   too). *)
let record_metrics (results : result list) =
  if Obs.Metrics.enabled () then
    List.iter
      (fun r ->
        let d = Icache.Config.describe r.config in
        Obs.Metrics.incr ~by:r.accesses
          (Obs.Metrics.counter ("sim.accesses{" ^ d ^ "}"));
        Obs.Metrics.incr ~by:r.misses
          (Obs.Metrics.counter ("sim.misses{" ^ d ^ "}"));
        Obs.Metrics.incr ~by:r.words_fetched
          (Obs.Metrics.counter ("sim.words_fetched{" ^ d ^ "}")))
      results

(* Per-configuration state carried across one trace walk.  Run
   bookkeeping: a run starts at a miss and extends over the consecutive
   sequential fetches that follow it; it closes at the next miss, at a
   non-sequential hit, or at the end of the trace. *)
type state = {
  s_config : Icache.Config.t;
  cache : Icache.Cache.t;
  words_per_block : int;
  timers : Icache.Timing.t array; (* blocking, streaming, streaming_partial *)
  mutable run_open : bool;
  mutable run_len : int;
  mutable run_word : int;
  mutable run_fetched : int;
  mutable runs_sum : int;
  mutable runs_count : int;
  mutable next_at : int; (* words of the current span already accounted *)
  on_miss : at:int -> word_in_block:int -> fetched_words:int -> unit;
      (* the span's miss callback, allocated once with the state *)
}

let close_run st =
  if st.run_open then begin
    st.runs_sum <- st.runs_sum + st.run_len;
    st.runs_count <- st.runs_count + 1;
    Array.iter
      (fun t ->
        Icache.Timing.on_miss t ~words_per_block:st.words_per_block
          ~word_in_block:st.run_word ~run_words:(st.run_len - 1)
          ~fetched_words:st.run_fetched)
      st.timers;
    st.run_open <- false
  end

(* A miss closes the current run and opens the next one. *)
let open_run st ~word_in_block ~fetched_words =
  close_run st;
  st.run_open <- true;
  st.run_len <- 1;
  st.run_word <- word_in_block;
  st.run_fetched <- fetched_words

(* Account [n] consecutive hit fetches for the run bookkeeping.  Only the
   first of the [n] can be non-sequential (within a span every later
   fetch is), and a non-sequential hit closes the run without extending
   it, after which the remaining hits are no-ops. *)
let apply_hits st n ~first_seq =
  if st.run_open then
    if first_seq then st.run_len <- st.run_len + n else close_run st

(* A span's first fetch is never sequential: a maximal span cannot start
   at the address where the previous one ended.  Every later fetch in
   the span is, so the hits before a miss at word [at] start
   sequentially exactly when some word of the span came before them. *)
let span_miss st ~at ~word_in_block ~fetched_words =
  let gap = at - st.next_at in
  if gap > 0 then apply_hits st gap ~first_seq:(st.next_at > 0);
  open_run st ~word_in_block ~fetched_words;
  st.next_at <- at + 1

let state config =
  let rec st =
    {
      s_config = config;
      cache = Icache.Cache.create config;
      words_per_block = Icache.Config.words_per_block config;
      timers =
        Array.map Icache.Timing.create
          [|
            Icache.Timing.Blocking;
            Icache.Timing.Streaming;
            Icache.Timing.Streaming_partial;
          |];
      run_open = false;
      run_len = 0;
      run_word = 0;
      run_fetched = 0;
      runs_sum = 0;
      runs_count = 0;
      next_at = 0;
      on_miss =
        (fun ~at ~word_in_block ~fetched_words ->
          span_miss st ~at ~word_in_block ~fetched_words);
    }
  in
  st

(* Close the last run and read the metrics off the state. *)
let result_of st =
  close_run st;
  let cache = st.cache in
  let eat i = Icache.Timing.effective_access_time st.timers.(i) in
  {
    config = st.s_config;
    accesses = Icache.Cache.accesses cache;
    misses = Icache.Cache.misses cache;
    words_fetched = Icache.Cache.words_fetched cache;
    miss_ratio = Icache.Cache.miss_ratio cache;
    traffic_ratio = Icache.Cache.traffic_ratio cache;
    avg_fetch_words = Icache.Cache.avg_fetch_words cache;
    avg_exec_insns =
      (if st.runs_count = 0 then 0.
       else float_of_int st.runs_sum /. float_of_int st.runs_count);
    eat_blocking = eat 0;
    eat_streaming = eat 1;
    eat_streaming_partial = eat 2;
  }

(* ------------------------------------------------------------------ *)
(* Span-program sweep                                                  *)
(* ------------------------------------------------------------------ *)

(* Replay one maximal span.  [access_run] equals per-word [access], so
   one call per span changes nothing against one per block; and a hit
   run that a block boundary would have split continues sequentially,
   where [apply_hits] only extends the open run. *)
let replay_span st addr words =
  st.next_at <- 0;
  Icache.Cache.access_run st.cache ~addr ~words ~on_miss:st.on_miss;
  let tail = words - st.next_at in
  if tail > 0 then apply_hits st tail ~first_seq:(st.next_at > 0)

(* Telemetry: how much of each sweep walked spans and how much the
   steady-state skip accounted for in bulk, summed over configurations. *)
let span_walks =
  Obs.Metrics.counter "sim.span_walks"
    ~help:"spans replayed through the cache, one per span per configuration"

let span_skips =
  Obs.Metrics.counter "sim.span_skips"
    ~help:"spans accounted as steady-state hits without a walk"

(* Replay a span program into one configuration; returns the spans
   walked.  A record's window is replayed until one copy misses nowhere;
   every later copy then hits throughout and changes no cache or run
   state (see [Icache.Cache.skip_hits] and [replay_span]: the copy's
   first fetch is not sequential, so the all-hit copy closed any open
   run), so the remaining copies only add their words to the access
   count. *)
let walk st (p : Trace.program) =
  let span_addr = p.Trace.span_addr and span_words = p.Trace.span_words in
  let windows = p.Trace.windows and window_start = p.Trace.window_start in
  let cache = st.cache in
  let walked = ref 0 in
  Trace.iter_records
    (fun w repeat ->
      let first = window_start.(w) and stop = window_start.(w + 1) in
      let copies = ref 0 and steady = ref false in
      while (not !steady) && !copies < repeat do
        let misses = Icache.Cache.misses cache in
        for i = first to stop - 1 do
          let id = Array.unsafe_get windows i in
          replay_span st
            (Array.unsafe_get span_addr id)
            (Array.unsafe_get span_words id)
        done;
        incr copies;
        steady := Icache.Cache.misses cache = misses
      done;
      walked := !walked + (!copies * (stop - first));
      if !copies < repeat then begin
        let words = ref 0 in
        for i = first to stop - 1 do
          words := !words + span_words.(windows.(i))
        done;
        Icache.Cache.skip_hits cache ((repeat - !copies) * !words)
      end)
    p;
  !walked

let sweep configs (p : Trace.program) : result list =
  Obs.Span.with_ ~stage:"simulate"
    ~attrs:
      [
        ("engine", "single-pass");
        ("configs", string_of_int (List.length configs));
        ("records", string_of_int p.Trace.nrecords);
      ]
  @@ fun () ->
  let states = List.map state configs in
  let walked = List.fold_left (fun acc st -> acc + walk st p) 0 states in
  Obs.Span.add_attr "spans" (string_of_int p.Trace.nspans);
  Obs.Span.add_attr "walked" (string_of_int walked);
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr ~by:walked span_walks;
    Obs.Metrics.incr
      ~by:((p.Trace.nspans * List.length states) - walked)
      span_skips
  end;
  let results =
    List.map
      (fun st ->
        let hits =
          Icache.Cache.accesses st.cache - Icache.Cache.misses st.cache
        in
        Array.iter (fun t -> Icache.Timing.on_hits t hits) st.timers;
        result_of st)
      states
  in
  record_metrics results;
  results

(* Each configuration's walk is independent and reads the one shared
   program: the decode that lane-sized chunks used to share is done
   once, before the fan-out.  So every configuration is its own pool
   task; results come back in input order, bit-identical to the serial
   sweep.  Measured on tables passes at -j 2 on a shared 2-vCPU host
   (cmp, tee, tar; 4 alternating runs of 20 passes each), one task per
   configuration and one contiguous chunk per lane take the same time
   within noise (8.6 s and 8.8 s medians), and the finer grain needs no
   partition code.
   Reading the default pool here, rather than [Pool.map_default], keeps
   the serial arm one sweep with no outer [engine=parallel] span. *)
let replay configs program =
  match Placement.Pool.default () with
  | Some pool
    when Placement.Pool.lanes pool > 1
         && List.compare_length_with configs 2 >= 0 ->
    Obs.Span.with_ ~stage:"simulate"
      ~attrs:
        [
          ("engine", "parallel");
          ("configs", string_of_int (List.length configs));
          ("lanes", string_of_int (Placement.Pool.lanes pool));
        ]
    @@ fun () ->
    List.concat
      (Placement.Pool.map pool (fun c -> sweep [ c ] program) configs)
  | _ -> sweep configs program

let simulate configs map trace = replay configs (Trace.program map trace)
