(* Word-granular reference simulator: the oracle of [Sim.Driver]'s
   span-program sweep.  Every instruction fetch goes through
   [Icache.Cache.access] one at a time, every hit through
   [Icache.Timing.on_hit], and the run bookkeeping is its own: a run
   starts at a miss and extends over the consecutive sequential fetches
   that follow it; it closes at the next miss, at a non-sequential hit,
   or at the end of the trace. *)

let run (config : Icache.Config.t) (map : Placement.Address_map.t)
    (trace : Sim.Trace.t) : Sim.Driver.result =
  Obs.Span.with_ ~stage:"simulate"
    ~attrs:[ ("engine", "reference"); ("config", Icache.Config.describe config) ]
  @@ fun () ->
  let cache = Icache.Cache.create config in
  let words_per_block = Icache.Config.words_per_block config in
  let timers =
    Array.map Icache.Timing.create
      [|
        Icache.Timing.Blocking; Icache.Timing.Streaming;
        Icache.Timing.Streaming_partial;
      |]
  in
  let prev_addr = ref min_int in
  let run_open = ref false in
  let run_len = ref 0 and run_word = ref 0 and run_fetched = ref 0 in
  let runs_sum = ref 0 and runs_count = ref 0 in
  let close_run () =
    if !run_open then begin
      runs_sum := !runs_sum + !run_len;
      incr runs_count;
      Array.iter
        (fun t ->
          Icache.Timing.on_miss t ~words_per_block ~word_in_block:!run_word
            ~run_words:(!run_len - 1) ~fetched_words:!run_fetched)
        timers;
      run_open := false
    end
  in
  let addr_of = map.Placement.Address_map.block_addr in
  let words_of = map.Placement.Address_map.block_words in
  Sim.Trace.iter_blocks
    (fun fid label ->
      let base = addr_of.(fid).(label) in
      for k = 0 to words_of.(fid).(label) - 1 do
        let addr = base + (k * Ir.Insn.bytes_per_insn) in
        let o = Icache.Cache.access cache addr in
        let sequential = addr = !prev_addr + Icache.Config.word_bytes in
        prev_addr := addr;
        if o.Icache.Cache.miss then begin
          close_run ();
          run_open := true;
          run_len := 1;
          run_word := o.Icache.Cache.word_in_block;
          run_fetched := o.Icache.Cache.fetched_words
        end
        else begin
          Array.iter Icache.Timing.on_hit timers;
          if !run_open then if sequential then incr run_len else close_run ()
        end
      done)
    trace;
  close_run ();
  let eat i = Icache.Timing.effective_access_time timers.(i) in
  let r =
    {
      Sim.Driver.config;
      accesses = Icache.Cache.accesses cache;
      misses = Icache.Cache.misses cache;
      words_fetched = Icache.Cache.words_fetched cache;
      miss_ratio = Icache.Cache.miss_ratio cache;
      traffic_ratio = Icache.Cache.traffic_ratio cache;
      avg_fetch_words = Icache.Cache.avg_fetch_words cache;
      avg_exec_insns =
        (if !runs_count = 0 then 0.
         else float_of_int !runs_sum /. float_of_int !runs_count);
      eat_blocking = eat 0;
      eat_streaming = eat 1;
      eat_streaming_partial = eat 2;
    }
  in
  Sim.Driver.record_metrics [ r ];
  r

(* Every metric, bit for bit ([config] aside: callers pair results by
   position). *)
let results_equal (a : Sim.Driver.result) (b : Sim.Driver.result) =
  a.accesses = b.accesses
  && a.misses = b.misses
  && a.words_fetched = b.words_fetched
  && a.miss_ratio = b.miss_ratio
  && a.traffic_ratio = b.traffic_ratio
  && a.avg_fetch_words = b.avg_fetch_words
  && a.avg_exec_insns = b.avg_exec_insns
  && a.eat_blocking = b.eat_blocking
  && a.eat_streaming = b.eat_streaming
  && a.eat_streaming_partial = b.eat_streaming_partial
