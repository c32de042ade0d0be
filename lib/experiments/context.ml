(* Shared experiment context: per benchmark, the placement pipeline, the
   recorded block traces, derived address maps, and cache simulation
   results — all computed lazily and at most once, since every table
   draws on the same artifacts.

   Traces are held as [Sim.Trace.t]: the VM streams blocks straight
   into the run-length/delta compressing builder, so what the context
   memoizes is the compressed store (typically ~10x smaller than a plain
   8-byte-per-block vector of the same trace).

   Address maps are produced per layout strategy through one memoized
   table ([strategy_map]); adding a strategy to [Placement.Strategy.all]
   makes it available to every experiment with no new plumbing here.

   Simulation results are memoized per (address map, trace, cache
   configuration) in a hashtable: maps and traces are interned to small
   integer ids on first sight (identity-keyed, which is why every map
   getter below is itself memoized), so a lookup costs one hash probe
   rather than a scan of everything simulated so far.

   Domain safety: each entry carries one mutex guarding all of its
   mutable state — the lazies (concurrently forcing a [Lazy.t] is
   unsafe in OCaml 5), the memo tables, the interning lists and the
   warning list.  The lock is held for memoized construction (so a
   strategy that raises records its fallback warning exactly once), but
   never across [Sim.Driver.simulate]: the sweep may itself fan
   out across the domain pool, and the submitting domain helps run
   other tasks while it waits — tasks that may need this very lock.
   Two domains can therefore race to simulate the same uncached
   configuration; both compute the identical deterministic result and
   [Hashtbl.replace] makes the double-fill harmless, so results are
   bit-identical to the serial run and only the memo-miss count can
   drift (bounded by the rare same-entry overlap). *)

type cached = { result : Sim.Driver.result; mutable last_used : int }

type interned = {
  map : Placement.Address_map.t;
  id : int;
  mutable programs : (int * Sim.Trace.program) list;
      (* trace id -> the map's span program over that trace *)
}

type entry = {
  bench : Workloads.Bench.t;
  lock : Mutex.t; (* guards every mutable/lazy field below *)
  memo_cap : int option;
      (* LRU bound on [sim_cache] entries; [None] = unbounded (the CLI
         default — a table run's working set is the whole table) *)
  strategy_cap : int option; (* LRU bound on [strategy_maps] *)
  mutable memo_tick : int; (* LRU clock, monotone under the lock *)
  mutable memo_evicted : int;
      (* per-context eviction count — live even with metrics off, so a
         resident service can report it deterministically *)
  pipeline : Placement.Pipeline.t Lazy.t;
  pipeline_noinline : Placement.Pipeline.t Lazy.t; (* inlining ablated *)
  trace : Sim.Trace.t Lazy.t; (* inlined program, trace input *)
  original_trace : Sim.Trace.t Lazy.t; (* pre-inlining program *)
  lazy_original_map : Placement.Address_map.t Lazy.t;
  mutable strategy_maps : (string * Placement.Address_map.t) list;
      (* strategy id -> map of the inlined program under that strategy,
         most recently used first (so the cap drops the coldest) *)
  mutable warnings : Ir.Diag.t list;
      (* degradation warnings recorded during this entry's lifetime,
         newest first (e.g. a strategy that raised and fell back) *)
  mutable scaled_maps : (float * Placement.Address_map.t) list;
  mutable map_ids : interned list;
      (* interned maps with their span programs; with [memo_cap] set,
         pruned to those the remaining [sim_cache] keys reference, which
         drops their programs too *)
  mutable next_map_id : int;
      (* monotone id source: a pruned id is never reissued, so a fill
         computed outside the lock cannot land under another map's id *)
  mutable trace_ids : (Sim.Trace.t * int) list;
  sim_cache : (int * int * Icache.Config.t, cached) Hashtbl.t;
}

type t = entry list

(* Telemetry: the memoized-simulation hit rate and the degradation
   count are the context's own health metrics. *)
let memo_hits =
  Obs.Metrics.counter "context.memo_hits"
    ~help:"simulation results served from the (map, trace, config) cache"

let memo_misses =
  Obs.Metrics.counter "context.memo_misses"
    ~help:"simulation cache misses (filled by the single-pass engine)"

let strategy_fallbacks =
  Obs.Metrics.counter "context.strategy_fallbacks"
    ~help:"strategies that raised and fell back to the natural layout"

let memo_evictions =
  Obs.Metrics.counter "context.memo_evictions"
    ~help:
      "memoized simulation results and strategy maps dropped by the LRU \
       caps (long-running services bound their residency; CLI runs \
       default to unbounded)"

let make_entry ?memo_cap ?strategy_cap bench =
  let bench_attr = [ ("bench", bench.Workloads.Bench.name) ] in
  let pipeline =
    lazy
      (Obs.Span.with_ ~stage:"pipeline" ~attrs:bench_attr (fun () ->
           Placement.Pipeline.run
             (Workloads.Bench.program bench)
             ~inputs:(Workloads.Bench.profile_inputs bench)))
  in
  let pipeline_noinline =
    (* The inline pipeline's original program and profile, laid out
       without inlining: no second VM pass. *)
    lazy
      (let p = Lazy.force pipeline in
       Obs.Span.with_ ~stage:"pipeline"
         ~attrs:(("inline", "off") :: bench_attr)
         (fun () -> Placement.Pipeline.no_inline p))
  in
  let trace =
    lazy
      (Obs.Span.with_ ~stage:"trace-record" ~attrs:bench_attr (fun () ->
           Sim.Trace.record
             (Lazy.force pipeline).Placement.Pipeline.program
             (Workloads.Bench.trace_input bench)))
  in
  let original_trace =
    (* The pre-inlining program as the pipeline shipped it (i.e. after
       the cleanup pass), so it matches original_map's labels. *)
    lazy
      (Obs.Span.with_ ~stage:"trace-record"
         ~attrs:(("program", "original") :: bench_attr)
         (fun () ->
           Sim.Trace.record
             (Lazy.force pipeline).Placement.Pipeline.original
             (Workloads.Bench.trace_input bench)))
  in
  let lazy_original_map =
    (* Natural layout of the original (pre-inlining) program: the fully
       unoptimized baseline. *)
    lazy
      (Placement.Address_map.natural
         (Lazy.force pipeline).Placement.Pipeline.original)
  in
  {
    bench;
    lock = Mutex.create ();
    memo_cap;
    strategy_cap;
    memo_tick = 0;
    memo_evicted = 0;
    pipeline;
    pipeline_noinline;
    trace;
    original_trace;
    lazy_original_map;
    strategy_maps = [];
    warnings = [];
    scaled_maps = [];
    map_ids = [];
    next_map_id = 0;
    trace_ids = [];
    sim_cache = Hashtbl.create 64;
  }

let create ?(scale = 1) ?memo_cap ?strategy_cap ?names () =
  let check_cap what = function
    | Some c when c < 1 ->
      invalid_arg (Printf.sprintf "Context.create: %s must be >= 1" what)
    | _ -> ()
  in
  check_cap "memo_cap" memo_cap;
  check_cap "strategy_cap" strategy_cap;
  let benches =
    match names with
    | None -> Workloads.Registry.suite ~scale
    | Some names -> List.map (Workloads.Registry.find ~scale) names
  in
  List.map (make_entry ?memo_cap ?strategy_cap) benches

let entries t = t

let find t name =
  match
    List.find_opt (fun e -> e.bench.Workloads.Bench.name = name) t
  with
  | Some e -> e
  | None -> raise (Workloads.Registry.Unknown_benchmark name)

let name e = e.bench.Workloads.Bench.name

let locked e f =
  Mutex.lock e.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock e.lock) f

(* All lazies are forced under the entry lock.  Their bodies force
   sibling lazies through the closure variables directly (never through
   these accessors), so forcing never re-enters the lock. *)
let pipeline e = locked e (fun () -> Lazy.force e.pipeline)
let pipeline_noinline e = locked e (fun () -> Lazy.force e.pipeline_noinline)
let trace e = locked e (fun () -> Lazy.force e.trace)
let original_trace e = locked e (fun () -> Lazy.force e.original_trace)
let optimized_map e = (pipeline e).Placement.Pipeline.optimized
let natural_map e = (pipeline e).Placement.Pipeline.natural
let original_map e = locked e (fun () -> Lazy.force e.lazy_original_map)

(* Address map of the inlined program under a registered layout
   strategy, built at most once per (entry, strategy).

   Graceful degradation: a strategy that raises mid-construction must
   not abort a whole experiment sweep, so the failure is recorded as a
   [Strategy]-stage warning and the entry falls back to the natural
   layout for that strategy id.  Callers can inspect {!warnings} /
   {!fell_back} and render the substitution visibly.  Construction,
   memo insertion and warning recording all happen under the entry
   lock, so concurrent callers agree on one map and a failing strategy
   warns (and bumps the fallback counter) exactly once. *)
let strategy_map e (s : Placement.Strategy.t) =
  let id = s.Placement.Strategy.id in
  let p = pipeline e (* outside the critical section below *) in
  locked e @@ fun () ->
  match List.assoc_opt id e.strategy_maps with
  | Some map ->
    (* Refresh LRU position: the cap below drops the coldest entry. *)
    if e.strategy_cap <> None then
      e.strategy_maps <-
        (id, map) :: List.filter (fun (i, _) -> i <> id) e.strategy_maps;
    map
  | None ->
    let map =
      try
        Obs.Span.with_ ~stage:"strategy-map"
          ~attrs:[ ("bench", name e); ("strategy", id) ]
          (fun () -> Placement.Pipeline.map_for p s)
      with exn ->
        let detail =
          match exn with
          | Ir.Diag.Fail d -> Ir.Diag.to_string d
          | _ -> Printexc.to_string exn
        in
        (* Warn and count once per strategy id, even when the memoized
           fallback map was LRU-evicted and is being rebuilt. *)
        if
          not
            (List.exists (fun d -> d.Ir.Diag.strategy = Some id) e.warnings)
        then begin
          let d =
            Ir.Diag.make ~severity:Ir.Diag.Warning ~stage:Ir.Diag.Strategy
              ~strategy:id "%s: strategy failed (%s); fell back to the \
                            natural layout"
              (name e) detail
          in
          e.warnings <- d :: e.warnings;
          (* Surface the degradation the moment it happens — table
             rendering may flush much later (or never, on a crash). *)
          Obs.Log.warn_raw (Ir.Diag.to_string d);
          Obs.Metrics.incr strategy_fallbacks
        end;
        p.Placement.Pipeline.natural
    in
    e.strategy_maps <- (id, map) :: e.strategy_maps;
    (match e.strategy_cap with
    | Some cap when List.length e.strategy_maps > cap ->
      e.strategy_maps <- List.filteri (fun i _ -> i < cap) e.strategy_maps;
      e.memo_evicted <- e.memo_evicted + 1;
      Obs.Metrics.incr memo_evictions
    | _ -> ());
    map

let warnings e = locked e (fun () -> List.rev e.warnings)

(* Did [strategy_map] substitute the natural layout for this strategy? *)
let fell_back e id =
  locked e (fun () ->
      List.exists (fun d -> d.Ir.Diag.strategy = Some id) e.warnings)

(* Address map for the code-scaling experiment (Table 9): the inlined
   program with every block size scaled, laid out with the same trace
   selection and orderings (weights are size-independent).  The recorded
   block trace replays unchanged; only addresses and fetch counts move.
   Memoized per factor so repeated callers share one map (and therefore
   one set of cached simulation results). *)
let scaled_map e factor =
  let p = pipeline e in
  if factor = 1.0 then p.Placement.Pipeline.optimized
  else
    locked e @@ fun () ->
    match List.assoc_opt factor e.scaled_maps with
    | Some map -> map
    | None ->
      let scaled = Ir.Prog.scale_code factor p.Placement.Pipeline.program in
      let layouts =
        Array.mapi
          (fun fid f ->
            Placement.Func_layout.layout f
              (Placement.Weight.cfg_of_profile p.Placement.Pipeline.profile
                 fid)
              p.Placement.Pipeline.selections.(fid))
          scaled.Ir.Prog.funcs
      in
      let map =
        Placement.Address_map.build scaled ~layouts
          ~order:p.Placement.Pipeline.global
      in
      e.scaled_maps <- (factor, map) :: e.scaled_maps;
      map

(* ------------------------------------------------------------------ *)
(* Memoized simulation                                                 *)
(* ------------------------------------------------------------------ *)

(* Intern maps and traces to small ids on physical identity, so cached
   results key on a hashable (map id, trace id, config) triple.  The
   interning lists stay small — a handful of maps and two traces per
   table entry, and at most [memo_cap] maps under a cap (eviction
   unpins maps with no result left) — while the result cache can hold
   hundreds of design points.
   Interning mutates the entry, so callers hold its lock (the
   [_unlocked] suffix marks the requirement). *)
let intern_map_unlocked e map =
  match List.find_opt (fun m -> m.map == map) e.map_ids with
  | Some m -> m
  | None ->
    let m = { map; id = e.next_map_id; programs = [] } in
    e.next_map_id <- m.id + 1;
    e.map_ids <- m :: e.map_ids;
    m

let trace_id_unlocked e trace =
  match
    List.find_map
      (fun (t, i) -> if t == trace then Some i else None)
      e.trace_ids
  with
  | Some i -> i
  | None ->
    let i = List.length e.trace_ids in
    e.trace_ids <- (trace, i) :: e.trace_ids;
    i

(* LRU bookkeeping for the simulation memo.  [tick_unlocked] advances
   the entry's clock; eviction scans for the stalest entry — O(n) per
   eviction, fine at the cap sizes a resident service uses (hundreds).
   Under a multi-lane pool the eviction order can drift exactly like the
   memo-miss count already does; results never depend on it. *)
let tick_unlocked e =
  e.memo_tick <- e.memo_tick + 1;
  e.memo_tick

let evict_sim_unlocked e =
  match e.memo_cap with
  | Some cap when Hashtbl.length e.sim_cache > cap ->
    while Hashtbl.length e.sim_cache > cap do
      let victim =
        Hashtbl.fold
          (fun k v acc ->
            match acc with
            | Some (_, stamp) when stamp <= v.last_used -> acc
            | _ -> Some (k, v.last_used))
          e.sim_cache None
      in
      match victim with
      | None -> assert false (* length > cap >= 1 *)
      | Some (k, _) ->
        Hashtbl.remove e.sim_cache k;
        e.memo_evicted <- e.memo_evicted + 1;
        Obs.Metrics.incr memo_evictions
    done;
    (* Unpin the maps whose results are all gone. *)
    let live = Hashtbl.create 16 in
    Hashtbl.iter (fun (mid, _, _) _ -> Hashtbl.replace live mid ()) e.sim_cache;
    e.map_ids <- List.filter (fun m -> Hashtbl.mem live m.id) e.map_ids
  | _ -> ()

(* Simulate every configuration of [configs] on (map, trace), reusing
   cached results and replaying all uncached configurations through the
   map's span program over the trace, built at most once per interned
   map (a double build by two racing domains is harmless: both build
   the same program).  The build and the sweep run outside the entry
   lock — the sweep may fan out across the domain pool, and the
   submitting domain helps run other pool tasks while it waits, tasks
   that may need this very lock. *)
let simulate_many e configs map trace =
  let m, tid, missing, program =
    locked e (fun () ->
        let m = intern_map_unlocked e map in
        let tid = trace_id_unlocked e trace in
        let missing =
          List.sort_uniq compare
            (List.filter
               (fun c -> not (Hashtbl.mem e.sim_cache (m.id, tid, c)))
               configs)
        in
        (m, tid, missing, List.assoc_opt tid m.programs))
  in
  let mid = m.id in
  if Obs.Metrics.enabled () then begin
    let miss = List.length missing in
    Obs.Metrics.incr ~by:miss memo_misses;
    Obs.Metrics.incr ~by:(List.length configs - miss) memo_hits
  end;
  (match missing with
  | [] -> ()
  | _ ->
    let program =
      match program with
      | Some p -> p
      | None ->
        let p = Sim.Trace.program ~attrs:[ ("bench", name e) ] map trace in
        locked e (fun () ->
            if not (List.mem_assoc tid m.programs) then
              m.programs <- (tid, p) :: m.programs);
        p
    in
    let results = Sim.Driver.replay missing program in
    locked e (fun () ->
        List.iter2
          (fun c r ->
            Hashtbl.replace e.sim_cache (mid, tid, c)
              { result = r; last_used = tick_unlocked e })
          missing results));
  locked e (fun () ->
      let out =
        List.map
          (fun c ->
            match Hashtbl.find_opt e.sim_cache (mid, tid, c) with
            | Some cached ->
              cached.last_used <- tick_unlocked e;
              cached.result
            | None ->
              Ir.Diag.error ~stage:Ir.Diag.Simulation
                "%s: configuration missing from the simulation cache after \
                 a fill pass"
                (name e))
          configs
      in
      (* Evict only after this call's own results are read back, so a
         cap smaller than one sweep still returns correct results. *)
      evict_sim_unlocked e;
      out)

let simulate e config map trace =
  match simulate_many e [ config ] map trace with
  | [ r ] -> r
  | rs ->
    Ir.Diag.error ~stage:Ir.Diag.Simulation
      "%s: expected 1 simulation result, got %d" (name e) (List.length rs)
