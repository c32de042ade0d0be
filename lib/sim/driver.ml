(* Trace-driven simulation driver.

   Replays a stored block trace, expanded through an address map, into
   cache configurations, tracking the paper's metrics:

   - miss ratio and memory-traffic ratio (from the cache simulator);
   - avg.exec: mean consecutive instructions used from a cache miss to a
     taken branch or the next miss (Table 8);
   - avg.fetch: mean 4-byte entities transferred per miss (Table 8);
   - effective access time under the three refill timing policies.

   Two engines share the per-configuration state, the run bookkeeping
   and the result assembly below:
   - [simulate] is the span-fused sweep every experiment uses: the
     trace is walked ONCE as maximal address-contiguous spans
     ([Trace.iter_spans]), each span becomes a single
     [Icache.Cache.access_run] call per configuration, and all
     configurations' caches, timers and run bookkeeping advance in the
     same pass;
   - [reference] is the word-granular oracle: every instruction fetch
     goes through [Icache.Cache.access] one at a time.
   Their results are bit-identical (property-tested in
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
   simulation (reference and sweep alike). *)
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
  mutable prev_addr : int; (* reference only: last fetched word's address *)
  mutable run_open : bool;
  mutable run_len : int;
  mutable run_word : int;
  mutable run_fetched : int;
  mutable runs_sum : int;
  mutable runs_count : int;
  (* sweep only: *)
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
      prev_addr = min_int;
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
(* Word-granular reference                                             *)
(* ------------------------------------------------------------------ *)

let reference (config : Icache.Config.t)
    (map : Placement.Address_map.t) (trace : Trace.t) : result =
  Obs.Span.with_ ~stage:"simulate"
    ~attrs:[ ("engine", "reference"); ("config", Icache.Config.describe config) ]
  @@ fun () ->
  let st = state config in
  let addr_of = map.Placement.Address_map.block_addr in
  let words_of = map.Placement.Address_map.block_words in
  Trace.iter_blocks
    (fun fid label ->
      let base = addr_of.(fid).(label) in
      for k = 0 to words_of.(fid).(label) - 1 do
        let addr = base + (k * Ir.Insn.bytes_per_insn) in
        let outcome = Icache.Cache.access st.cache addr in
        let sequential = addr = st.prev_addr + Icache.Config.word_bytes in
        st.prev_addr <- addr;
        if outcome.Icache.Cache.miss then
          open_run st ~word_in_block:outcome.Icache.Cache.word_in_block
            ~fetched_words:outcome.Icache.Cache.fetched_words
        else begin
          Array.iter Icache.Timing.on_hit st.timers;
          apply_hits st 1 ~first_seq:sequential
        end
      done)
    trace;
  let r = result_of st in
  record_metrics [ r ];
  r

(* ------------------------------------------------------------------ *)
(* Span-fused, single-pass, multi-configuration sweep                 *)
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

let sweep configs (map : Placement.Address_map.t)
    (trace : Trace.t) : result list =
  Obs.Span.with_ ~stage:"simulate"
    ~attrs:
      [
        ("engine", "single-pass");
        ("configs", string_of_int (List.length configs));
      ]
  @@ fun () ->
  let states = List.map state configs in
  let states_arr = Array.of_list states in
  let nstates = Array.length states_arr in
  let spans = ref 0 in
  Trace.iter_spans map
    (fun addr words ->
      incr spans;
      for i = 0 to nstates - 1 do
        replay_span states_arr.(i) addr words
      done)
    trace;
  Obs.Span.add_attr "blocks" (string_of_int (Trace.dyn_blocks trace));
  Obs.Span.add_attr "spans" (string_of_int !spans);
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

(* Split [xs] into [k] contiguous runs whose lengths differ by at most
   one, longer runs first — concatenating the runs rebuilds [xs]. *)
let partition k xs =
  let n = List.length xs in
  let rec go i rest =
    if i = k then []
    else begin
      let len = (n / k) + if i < n mod k then 1 else 0 in
      let rec take len acc rest =
        if len = 0 then (List.rev acc, rest)
        else
          match rest with
          | [] -> (List.rev acc, [])
          | x :: rest -> take (len - 1) (x :: acc) rest
      in
      let run, rest = take len [] rest in
      run :: go (i + 1) rest
    end
  in
  go 0 xs

let simulate configs map trace =
  match Placement.Pool.default () with
  | Some pool
    when Placement.Pool.lanes pool > 1
         && List.compare_length_with configs 2 >= 0 ->
    (* Each configuration's cache state is independent, so a contiguous
       partition of the config list simulated per-chunk and concatenated
       in order is bit-identical to the serial sweep; only the trace
       walk cost is shared.  The chunk count matches the lane count:
       re-walking the trace is the dominant cost, so finer chunks would
       walk it more times for no balance win. *)
    Obs.Span.with_ ~stage:"simulate"
      ~attrs:
        [
          ("engine", "parallel");
          ("configs", string_of_int (List.length configs));
          ("lanes", string_of_int (Placement.Pool.lanes pool));
        ]
    @@ fun () ->
    let k = min (Placement.Pool.lanes pool) (List.length configs) in
    List.concat
      (Placement.Pool.map pool
         (fun chunk -> sweep chunk map trace)
         (partition k configs))
  | _ -> sweep configs map trace
