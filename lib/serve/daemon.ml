(* The layout-service daemon.

   One JSON request per line in, one JSON response per line out, in
   input order.  Robustness is the design axis: every failure a request
   can provoke — malformed JSON, unknown schema, a strategy that raises,
   an invalid cache geometry, an oversized payload — becomes a
   structured error response on that request alone; the daemon never
   dies and never skips a response.

   Parallelism and determinism: requests are read into bounded batches
   dispatched across the default {!Placement.Pool}.  A batch holds only
   read-only work (layout/lint/parse errors); profile-upload, stats and
   shutdown are barriers handled serially between batches.  Responses
   are emitted strictly in input order, accounting happens at emit time
   on one domain, no response contains a wall-clock value, and the batch
   width is a constant (not lane-dependent) — so `-j 1` and `-j N` runs
   are byte-identical, which the golden-vector replay checker enforces
   with a cmp-level comparison.

   Graceful degradation tiers, reported per response as ["tier"]:
   - ["none"]: served exactly as asked.
   - ["natural-fallback"]: the strategy raised; natural layout served.
   - ["cheapest-strategy"]: the deadline admits only the cheapest
     layout; natural layout served.
   - ["last-good-epoch"]: the named profile is poisoned (or has no
     usable snapshot yet); the last flow-conserving snapshot — or the
     builtin pipeline profile, as epoch 0 — served instead. *)

let requests_total =
  Obs.Metrics.counter "serve.requests" ~help:"Requests answered"

let errors_total =
  Obs.Metrics.counter "serve.errors" ~help:"Requests answered with an error"

let timeouts_total =
  Obs.Metrics.counter "serve.timeouts"
    ~help:"Requests answered with a timeout"

let degraded_total =
  Obs.Metrics.counter "serve.degraded"
    ~help:"Requests served in a degraded tier"

let map_evictions =
  Obs.Metrics.counter "serve.map_evictions"
    ~help:"Custom-profile address maps dropped by the LRU cap"

let notifications_total =
  Obs.Metrics.counter "serve.notifications"
    ~help:"Push staleness notifications emitted to subscribers"

(* Latency/queue/batch histograms.  Registered lazily per request type;
   all no-ops while the metrics registry is disabled (the replay path),
   so the determinism contract is untouched. *)
let latency_hist name =
  Obs.Metrics.histogram
    ("serve.latency." ^ name ^ ".seconds")
    ~help:"Wall-clock handling time per request of this type"

let queue_wait_hist =
  Obs.Metrics.histogram "serve.queue_wait.seconds"
    ~help:"Read-to-dispatch wait per request"

let batch_size_hist =
  Obs.Metrics.histogram "serve.batch_size"
    ~help:"Read-only jobs per pool flush"

type config = {
  deadline_ms : int;
  cheap_threshold_ms : int;
  retry_base_ms : int;
  max_request_bytes : int;
  max_batch : int;
  profile_cap : int;
  epoch_window : int;
  memo_cap : int;
  strategy_cap : int;
  map_cap : int;
  scale : int;
  benches : string list option;
  extra_strategies : Placement.Strategy.t list;
  slow_ms : int option;
      (* requests slower than this dump their span tree to the log *)
}

let default_config =
  {
    deadline_ms = 30_000;
    cheap_threshold_ms = 5;
    retry_base_ms = 25;
    max_request_bytes = 1 lsl 20;
    max_batch = 8;
    profile_cap = 64;
    epoch_window = 4;
    memo_cap = 256;
    strategy_cap = 16;
    map_cap = 32;
    scale = 1;
    benches = None;
    extra_strategies = [];
    slow_ms = None;
  }

type t = {
  config : config;
  context : Experiments.Context.t;
  store : Store.t;
  started_at : float;  (* wall clock at create; stats v2 uptime *)
  lock : Mutex.t;  (* guards both caches and the emit-time counters *)
  map_cache :
    (string * int * string * string, Placement.Address_map.t)
    Placement.Bounded.t;
      (* (profile, revision, source kind, strategy id) -> map *)
  absint_cache : (string * string, Analysis.Absint.t) Placement.Bounded.t;
      (* (bench, cache geometry) -> natural-map abstract interpretation,
         capped like map_cache.  The classification depends only on the
         program, the natural map and the geometry — never on profile
         weights — so one analysis serves every profile revision of a
         benchmark. *)
  mutable served : int;
  mutable by_type : (string * int) list;
  mutable by_status : (string * int) list;
  mutable by_tier : (string * int) list;
  mutable next_trace : int;
      (* trace-id source; bumped only by the single-threaded reader
         (classify), so ids are deterministic in input order at any -j *)
  mutable subs : string list option list;
      (* subscription filters in arrival order; None = every profile *)
  mutable notifications_sent : int;
  notified : (string * string * int, unit) Hashtbl.t;
      (* (profile, strategy|kind, epoch) already pushed — the
         exactly-once guard; pruned below the live epoch window *)
  mutable last_upload : (string * Store.outcome) option;
      (* set by the upload barrier, drained (or dropped) by the caller *)
  mutable stopped : bool;
}

let create ?(config = default_config) () =
  if config.max_batch < 1 then
    invalid_arg "Daemon.create: max_batch must be >= 1";
  let context =
    Experiments.Context.create ~scale:config.scale ~memo_cap:config.memo_cap
      ~strategy_cap:config.strategy_cap ?names:config.benches ()
  in
  let store =
    Store.create ~cap:config.profile_cap ~window:config.epoch_window ()
  in
  {
    config;
    context;
    store;
    started_at = Obs.Clock.now ();
    lock = Mutex.create ();
    map_cache = Placement.Bounded.create ~counter:map_evictions config.map_cap;
    absint_cache = Placement.Bounded.create config.map_cap;
    served = 0;
    by_type = [];
    by_status = [];
    by_tier = [];
    next_trace = 0;
    subs = [];
    notifications_sent = 0;
    notified = Hashtbl.create 64;
    last_upload = None;
    stopped = false;
  }

(* Trace ids: assigned at read/classify time by the single-threaded
   reader, so the id of the Nth request line is always t-%06d of N —
   byte-identical across -j levels and replays. *)
let fresh_trace t =
  t.next_trace <- t.next_trace + 1;
  Printf.sprintf "t-%06d" t.next_trace

let with_trace trace = function
  | Obs.Json.Obj fields ->
      Obs.Json.Obj (fields @ [ ("trace", Obs.Json.String trace) ])
  | j -> j

let context t = t.context
let store t = t.store

let find_strategy t id =
  match
    List.find_opt
      (fun s -> s.Placement.Strategy.id = id)
      t.config.extra_strategies
  with
  | Some s -> s
  | None -> Placement.Strategy.find id

(* ------------------------------------------------------------------ *)
(* Daemon caches                                                       *)
(* ------------------------------------------------------------------ *)

(* Look [key] up in one of the daemon's LRU caches, building and
   inserting it on a miss.  A hit refreshes the key; a [build] that
   raises caches nothing. *)
let cached t cache ~key build =
  Mutex.protect t.lock @@ fun () ->
  match Placement.Bounded.find cache key with
  | Some v -> v
  | None ->
      let v = build () in
      Placement.Bounded.add cache key v;
      v

(* Maps derived from uploaded profiles are cached under a key that pins
   the store revision, so the same snapshot always yields the same
   physical map — which is what keeps the context's simulation memo
   (keyed on physical map identity) hot across requests. *)
let custom_map t entry (strat : Placement.Strategy.t) ~pname ~revision ~kind
    prof =
  let prog =
    (Experiments.Context.pipeline entry).Placement.Pipeline.program
  in
  cached t t.map_cache ~key:(pname, revision, kind, strat.id) (fun () ->
      Placement.Pipeline.map_of_profile prog prof strat)

(* ------------------------------------------------------------------ *)
(* Certified bounds for the cheap-admission tier                       *)
(* ------------------------------------------------------------------ *)

(* Natural-map abstract interpretation, memoized per (bench, geometry)
   under the same lock and cap as the custom-map cache.  The first
   request at a new geometry pays the fixpoint (a few ms on the paper's
   programs); every later one is a table lookup, which is what lets a
   <= 5ms deadline carry a certified answer at all. *)
let cached_absint t entry cache_config =
  let key =
    (Experiments.Context.name entry, Icache.Config.describe cache_config)
  in
  cached t t.absint_cache ~key (fun () ->
      Analysis.Absint.analyze cache_config
        (Experiments.Context.natural_map entry)
        (Experiments.Context.pipeline entry).Placement.Pipeline.program)

let certified_json cache_config (a : Analysis.Absint.t)
    (iv : Analysis.Absint.interval) =
  let tot = Analysis.Absint.totals a in
  let ratio n =
    if iv.Analysis.Absint.fetches = 0 then 0.0
    else float_of_int n /. float_of_int iv.Analysis.Absint.fetches
  in
  Obs.Json.Obj
    [
      ("cache", Obs.Json.String (Icache.Config.describe cache_config));
      ("misses_lo", Obs.Json.Int iv.Analysis.Absint.lo);
      ("misses_hi", Obs.Json.Int iv.Analysis.Absint.hi);
      ("fetches", Obs.Json.Int iv.Analysis.Absint.fetches);
      ("miss_ratio_lo", Obs.Json.Float (ratio iv.Analysis.Absint.lo));
      ("miss_ratio_hi", Obs.Json.Float (ratio iv.Analysis.Absint.hi));
      ( "blocks_classified",
        Obs.Json.Int tot.Analysis.Absint.t_blocks_classified );
      ("blocks", Obs.Json.Int tot.Analysis.Absint.t_blocks);
      ( "gated",
        match a.Analysis.Absint.gated with
        | Some reason -> Obs.Json.String reason
        | None -> Obs.Json.Null );
    ]

(* ------------------------------------------------------------------ *)
(* layout-request                                                      *)
(* ------------------------------------------------------------------ *)

let retry_after t deadline =
  min 10_000 (max t.config.retry_base_ms (2 * deadline))

let elapsed_ms t0 = int_of_float ((Obs.Clock.now () -. t0) *. 1000.0)

let layout_json (prog : Ir.Prog.program) (map : Placement.Address_map.t) =
  let min_addr fid = Array.fold_left min max_int map.block_addr.(fid) in
  let order =
    List.sort
      (fun a b -> compare (min_addr a, a) (min_addr b, b))
      (List.init (Array.length prog.funcs) Fun.id)
  in
  let blocks =
    List.map
      (fun fid ->
        let addrs = map.block_addr.(fid) in
        let labels =
          List.sort
            (fun a b -> compare (addrs.(a), a) (addrs.(b), b))
            (List.init (Array.length addrs) Fun.id)
        in
        ( prog.funcs.(fid).Ir.Prog.name,
          Obs.Json.List (List.map (fun l -> Obs.Json.Int l) labels) ))
      order
  in
  Obs.Json.Obj
    [
      ( "functions",
        Obs.Json.List
          (List.map (fun fid -> Obs.Json.String prog.funcs.(fid).name) order)
      );
      ("blocks", Obs.Json.Obj blocks);
      ("total_bytes", Obs.Json.Int map.total_bytes);
      ("effective_bytes", Obs.Json.Int map.effective_bytes);
    ]

let predicted_json (r : Sim.Driver.result) =
  Obs.Json.Obj
    [
      ("cache", Obs.Json.String (Icache.Config.describe r.config));
      ("accesses", Obs.Json.Int r.accesses);
      ("misses", Obs.Json.Int r.misses);
      ("words_fetched", Obs.Json.Int r.words_fetched);
      ("miss_ratio", Obs.Json.Float r.miss_ratio);
      ("traffic_ratio", Obs.Json.Float r.traffic_ratio);
      ("avg_fetch_words", Obs.Json.Float r.avg_fetch_words);
      ("avg_exec_insns", Obs.Json.Float r.avg_exec_insns);
      ("eat_blocking", Obs.Json.Float r.eat_blocking);
      ("eat_streaming", Obs.Json.Float r.eat_streaming);
      ("eat_streaming_partial", Obs.Json.Float r.eat_streaming_partial);
    ]

let handle_layout t ~id ~bench ~strategy ~cache_config ~profile ~deadline_ms =
  let request = "layout-request" in
  let deadline = Option.value ~default:t.config.deadline_ms deadline_ms in
  if deadline = 0 then
    (* A zero deadline can never be met: deterministic typed timeout. *)
    Protocol.timeout_response ~id ~request
      ~retry_after_ms:(retry_after t deadline)
  else begin
    let t0 = Obs.Clock.now () in
    let entry, strat, cheap =
      Obs.Span.with_ ~stage:"serve.admission"
        ~attrs:
          [ ("deadline_ms", string_of_int deadline); ("strategy", strategy) ]
      @@ fun () ->
      let entry = Experiments.Context.find t.context bench in
      let strat = find_strategy t strategy in
      (entry, strat, deadline <= t.config.cheap_threshold_ms)
    in
    (* Resolve the profile source first: a bad profile reference must
       error identically whatever the deadline says. *)
    let source, source_name, source_epoch, source_prof =
      Obs.Span.with_ ~stage:"serve.store-lookup"
        ~attrs:[ ("profile", Option.value ~default:"-" profile) ]
      @@ fun () ->
      match profile with
      | None -> ("builtin", None, 0, None)
      | Some pname -> (
          (match Store.bench_of t.store pname with
          | Some b when b <> bench ->
              failwith
                (Printf.sprintf "profile %S is bound to benchmark %S, not %S"
                   pname b bench)
          | _ -> ());
          match Store.view t.store pname with
          | Store.Unknown ->
              failwith (Printf.sprintf "unknown profile %S" pname)
          | Store.Fresh { profile; revision; epoch } ->
              ("fresh", Some (pname, revision), epoch, Some profile)
          | Store.Last_good { profile; revision; epoch } ->
              ("last-good", Some (pname, revision), epoch, Some profile)
          | Store.Empty ->
              (* Poisoned (or never-good) with no snapshot: the builtin
                 pipeline profile is the last-good epoch, numbered 0. *)
              ("builtin", None, 0, None))
    in
    let effective, map, fell_back =
      Obs.Span.with_ ~stage:"serve.strategy-map" @@ fun () ->
      if cheap then
        (* Admission control: the deadline only admits the cheapest
           layout.  Deterministic — no clock involved. *)
        (Placement.Strategy.natural, Experiments.Context.natural_map entry,
         false)
      else
        match source_prof, source_name with
        | Some prof, Some (pname, revision) -> (
            try (strat, custom_map t entry strat ~pname ~revision ~kind:source prof, false)
            with _ ->
              (Placement.Strategy.natural,
               Experiments.Context.natural_map entry, true))
        | _ ->
            let map = Experiments.Context.strategy_map entry strat in
            let fb = Experiments.Context.fell_back entry strat.id in
            ((if fb then Placement.Strategy.natural else strat), map, fb)
    in
    (* Checkpoint: layout built but the deadline already passed — finish
       with the cheapest result rather than burning more of it. *)
    let over_before_sim = (not cheap) && elapsed_ms t0 > deadline in
    let effective, map =
      if over_before_sim then
        (Placement.Strategy.natural, Experiments.Context.natural_map entry)
      else (effective, map)
    in
    (* The cheap tier never replays a trace: it answers with the
       memoized abstract interpretation's certified miss interval over
       the natural layout — a sound promise, not a simulation — under
       whichever profile weights the request resolved to (uploaded
       snapshot or builtin).  Every other tier simulates as before. *)
    let prediction =
      if cheap then
        Obs.Span.with_ ~stage:"serve.certify"
          ~attrs:[ ("cache", Icache.Config.describe cache_config) ]
        @@ fun () ->
        let prof =
          match source_prof with
          | Some p -> p
          | None ->
              (Experiments.Context.pipeline entry).Placement.Pipeline.profile
        in
        let a = cached_absint t entry cache_config in
        let iv =
          Analysis.Absint.interval
            ~entries:
              (Analysis.Absint.profile_entries a
                 ~weights:(Placement.Weight.cfg_of_profile prof))
            a
            ~counts:(Vm.Profile.block_weight prof)
        in
        ("certified", certified_json cache_config a iv)
      else
        let result =
          Obs.Span.with_ ~stage:"serve.simulate"
            ~attrs:[ ("cache", Icache.Config.describe cache_config) ]
          @@ fun () ->
          Experiments.Context.simulate entry cache_config map
            (Experiments.Context.trace entry)
        in
        ("predicted", predicted_json result)
    in
    (* The cheap-admission tier is a deterministic promise — degrade
       and serve — so the wall-clock timeout only applies outside it. *)
    if (not cheap) && elapsed_ms t0 > deadline then
      Protocol.timeout_response ~id ~request
        ~retry_after_ms:(retry_after t deadline)
    else begin
      let tier =
        if cheap || over_before_sim then "cheapest-strategy"
        else if source = "last-good" || (profile <> None && source = "builtin")
        then "last-good-epoch"
        else if fell_back then "natural-fallback"
        else "none"
      in
      if tier <> "none" then Obs.Metrics.incr degraded_total;
      (* Attach the outcome to the enclosing serve.request span. *)
      Obs.Span.add_attr "tier" tier;
      Obs.Span.add_attr "strategy" effective.Placement.Strategy.id;
      let prog =
        (Experiments.Context.pipeline entry).Placement.Pipeline.program
      in
      Protocol.ok_response ~id ~request
        [
          ("bench", Obs.Json.String bench);
          ("strategy", Obs.Json.String effective.Placement.Strategy.id);
          ("requested_strategy", Obs.Json.String strat.id);
          ("tier", Obs.Json.String tier);
          ( "profile",
            Obs.Json.Obj
              [
                ("source", Obs.Json.String source);
                ( "name",
                  match source_name with
                  | Some (pname, _) -> Obs.Json.String pname
                  | None -> Obs.Json.Null );
                ("epoch", Obs.Json.Int source_epoch);
              ] );
          ("layout", layout_json prog map);
          prediction;
        ]
    end
  end

(* ------------------------------------------------------------------ *)
(* The other request kinds                                             *)
(* ------------------------------------------------------------------ *)

let handle_upload t ~id (u : Protocol.upload) =
  let request = "profile-upload" in
  let entry = Experiments.Context.find t.context u.bench in
  let prog = (Experiments.Context.pipeline entry).Placement.Pipeline.program in
  match Store.upload t.store ~prog u with
  | Error e -> Protocol.error_response ~id ~request e
  | Ok (o : Store.outcome) ->
      (* Uploads are barriers, so this write is serial; the serve loop
         drains it into staleness notifications right after emitting
         this response. *)
      if o.accepted then t.last_upload <- Some (u.profile, o);
      Protocol.ok_response ~id ~request
        ([
           ("accepted", Obs.Json.Bool o.accepted);
         ]
        @ (match o.reason with
          | Some r -> [ ("reason", Obs.Json.String r) ]
          | None -> [])
        @ [
            ("epoch", Obs.Json.Int o.epoch);
            ("min_live_epoch", Obs.Json.Int o.min_live);
            ("epochs_live", Obs.Json.Int o.epochs_live);
            ("poisoned", Obs.Json.Bool o.poisoned);
            ("flow_violations", Obs.Json.Int o.flow_violations);
            ("revision", Obs.Json.Int o.revision);
          ])

let handle_lint t ~id ~bench ~strategy ~min_prob =
  let entry = Experiments.Context.find t.context bench in
  let strat = find_strategy t strategy in
  let r = Experiments.Lint_exp.lint_entry ?min_prob entry strat in
  Protocol.ok_response ~id ~request:"lint-request"
    [
      ("bench", Obs.Json.String bench);
      ("fell_back", Obs.Json.Bool r.Experiments.Lint_exp.fell_back);
      ("result", Experiments.Lint_exp.result_json r);
    ]

(* Quantile summary of one latency-class histogram, in milliseconds.
   With the metrics registry disabled (the replay path) every field is
   exactly zero, keeping stats v2 free of wall-clock values there. *)
let quantiles_ms_json h =
  let ms p = Obs.Json.Float (1000.0 *. Obs.Metrics.hist_quantile h p) in
  Obs.Json.Obj
    [
      ("count", Obs.Json.Int (Obs.Metrics.hist_count h));
      ("p50_ms", ms 0.50);
      ("p90_ms", ms 0.90);
      ("p99_ms", ms 0.99);
    ]

(* Stats is a barrier: it runs serially between batches and reads the
   emit-time counters, so its numbers are exact for everything already
   on the wire — identical under -j 1 and -j N. *)
let handle_stats t ~id =
  Mutex.protect t.lock @@ fun () ->
  let assoc l =
    Obs.Json.Obj
      (List.sort compare l |> List.map (fun (k, v) -> (k, Obs.Json.Int v)))
  in
  let latency_rows =
    (* One row per request type already served (deterministic sorted
       order), plus the all-types aggregate. *)
    List.sort compare (List.map fst t.by_type) @ [ "all" ]
    |> List.map (fun name -> (name, quantiles_ms_json (latency_hist name)))
  in
  Protocol.ok_response ~id ~request:"stats"
    [
      ("stats_version", Obs.Json.Int 2);
      ( "uptime_seconds",
        (* Wall clock, so zero unless telemetry is on: replayed stats
           responses must stay byte-identical. *)
        Obs.Json.Float
          (if Obs.Metrics.enabled () then Obs.Clock.now () -. t.started_at
           else 0.0) );
      ("served", Obs.Json.Int t.served);
      ("by_type", assoc t.by_type);
      ("by_status", assoc t.by_status);
      ("by_tier", assoc t.by_tier);
      ("subscriptions", Obs.Json.Int (List.length t.subs));
      ("notifications", Obs.Json.Int t.notifications_sent);
      ( "evictions",
        Obs.Json.Obj
          [
            ("profiles", Obs.Json.Int (Store.evictions_total t.store));
            ("maps", Obs.Json.Int (Placement.Bounded.evictions t.map_cache));
            (* Per-context count, not the process-global metrics
               counter: stats stay deterministic and daemon-local. *)
            ( "memo",
              Obs.Json.Int
                (List.fold_left
                   (fun acc e ->
                     acc + e.Experiments.Context.memo_evicted)
                   0
                   (Experiments.Context.entries t.context)) );
          ] );
      ("latency", Obs.Json.Obj latency_rows);
      ("queue_wait", quantiles_ms_json queue_wait_hist);
      ( "batch_size",
        Obs.Json.Obj
          [
            ("count", Obs.Json.Int (Obs.Metrics.hist_count batch_size_hist));
            ( "p50",
              Obs.Json.Float (Obs.Metrics.hist_quantile batch_size_hist 0.50)
            );
            ( "p99",
              Obs.Json.Float (Obs.Metrics.hist_quantile batch_size_hist 0.99)
            );
          ] );
      ("profiles", Store.stats_json t.store);
      ( "limits",
        Obs.Json.Obj
          [
            ("profile_cap", Obs.Json.Int t.config.profile_cap);
            ("memo_cap", Obs.Json.Int t.config.memo_cap);
            ("strategy_cap", Obs.Json.Int t.config.strategy_cap);
            ("map_cap", Obs.Json.Int t.config.map_cap);
            ("epoch_window", Obs.Json.Int t.config.epoch_window);
            ("max_batch", Obs.Json.Int t.config.max_batch);
            ("max_request_bytes", Obs.Json.Int t.config.max_request_bytes);
            ("deadline_ms", Obs.Json.Int t.config.deadline_ms);
          ] );
    ]

(* Subscribe is a barrier: registering the filter between batches means
   every later upload's notifications are observed, none racily
   missed.  Duplicate filters collapse, so a client re-subscribing in a
   retry loop cannot grow the daemon. *)
let handle_subscribe t ~id ~profiles =
  Mutex.protect t.lock @@ fun () ->
  if not (List.mem profiles t.subs) then t.subs <- t.subs @ [ profiles ];
  Protocol.ok_response ~id ~request:"subscribe"
    [
      ( "subscribed",
        match profiles with
        | None -> Obs.Json.String "all"
        | Some l -> Obs.Json.List (List.map (fun p -> Obs.Json.String p) l) );
      ("active_subscriptions", Obs.Json.Int (List.length t.subs));
    ]

(* Health verdict from the degradation counters: degraded while any
   profile is poisoned or any request was served by natural-fallback
   (a strategy raised — a bug or an adversarial strategy, not an
   admission decision); ready otherwise.  Deterministic — counts only,
   no clock. *)
let handle_health t ~id =
  let poisoned = Store.poisoned_count t.store in
  Mutex.protect t.lock @@ fun () ->
  let tier k = Option.value ~default:0 (List.assoc_opt k t.by_tier) in
  let fallbacks = tier "natural-fallback" in
  let degraded = poisoned > 0 || fallbacks > 0 in
  Protocol.ok_response ~id ~request:"health"
    [
      ("verdict", Obs.Json.String (if degraded then "degraded" else "ready"));
      ("ready", Obs.Json.Bool (not degraded));
      ( "checks",
        Obs.Json.Obj
          [
            ("poisoned_profiles", Obs.Json.Int poisoned);
            ("natural_fallbacks", Obs.Json.Int fallbacks);
            ("last_good_served", Obs.Json.Int (tier "last-good-epoch"));
            ("cheapest_served", Obs.Json.Int (tier "cheapest-strategy"));
            ( "timeouts",
              Obs.Json.Int
                (Option.value ~default:0 (List.assoc_opt "timeout" t.by_status))
            );
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Push-style staleness notifications                                  *)
(* ------------------------------------------------------------------ *)

(* After an accepted upload (a barrier), every cached address map for
   that profile at an older revision is stale.  Each (profile,
   strategy|kind, epoch) is pushed at most once — the [notified] table
   is the exactly-once guard — and only while some subscription filter
   matches, so an unobserved staleness costs nothing.  Runs serially
   right after the upload's own response, keeping notification order
   deterministic at any -j. *)
let take_notifications t ~trace : Obs.Json.t list =
  match t.last_upload with
  | None -> []
  | Some (pname, o) ->
      t.last_upload <- None;
      let subscribed =
        List.exists
          (function None -> true | Some l -> List.mem pname l)
          t.subs
      in
      if not subscribed then []
      else begin
        (* Forget guards below the live window; stale-epoch uploads
           can never notify again, so the table stays bounded. *)
        let drop =
          Hashtbl.fold
            (fun (p, sk, e) () acc ->
              if p = pname && e < o.Store.min_live then (p, sk, e) :: acc
              else acc)
            t.notified []
        in
        List.iter (fun k -> Hashtbl.remove t.notified k) drop;
        let stale =
          Mutex.protect t.lock (fun () ->
              Placement.Bounded.fold
                (fun (p, rev, kind, strat) _ acc ->
                  if p = pname && rev < o.Store.revision then
                    (strat, kind, rev) :: acc
                  else acc)
                t.map_cache [])
          |> List.sort_uniq compare
          (* One staleness fact per (strategy, kind): several cached
             revisions of the same map collapse to the newest. *)
          |> List.fold_left
               (fun acc (strat, kind, rev) ->
                 match acc with
                 | (s, k, r) :: tl when s = strat && k = kind ->
                     (s, k, max r rev) :: tl
                 | _ -> (strat, kind, rev) :: acc)
               []
          |> List.rev
          |> List.filter (fun (strat, kind, _) ->
                 not
                   (Hashtbl.mem t.notified
                      (pname, strat ^ "|" ^ kind, o.Store.epoch)))
        in
        if stale = [] then []
        else begin
          List.iter
            (fun (strat, kind, _) ->
              Hashtbl.replace t.notified
                (pname, strat ^ "|" ^ kind, o.Store.epoch)
                ())
            stale;
          t.notifications_sent <- t.notifications_sent + 1;
          Obs.Metrics.incr notifications_total;
          [
            Protocol.stale_notification ~trace ~profile:pname
              ~epoch:o.Store.epoch ~revision:o.Store.revision
              ~poisoned:o.Store.poisoned ~stale;
          ]
        end
      end

(* ------------------------------------------------------------------ *)
(* Request isolation                                                   *)
(* ------------------------------------------------------------------ *)

(* One request's span tree, indented by nesting depth — what --slow-ms
   dumps for an offending request. *)
let span_tree_lines (spans : Obs.Span.event list) =
  List.sort (fun (a : Obs.Span.event) b -> compare a.start_us b.start_us) spans
  |> List.map (fun (e : Obs.Span.event) ->
         Printf.sprintf "%s%s %.2f ms%s"
           (String.make (2 * e.depth) ' ')
           e.name (e.dur_us /. 1000.0)
           (match e.attrs with
           | [] -> ""
           | attrs ->
               " ["
               ^ String.concat ", "
                   (List.map (fun (k, v) -> k ^ "=" ^ v) attrs)
               ^ "]"))

(* Total: whatever a request provokes, the answer is a response.  The
   whole dispatch runs inside a [serve.request] span (child spans mark
   parse/admission/store-lookup/strategy-map/simulate), feeds the
   per-type latency histograms, and — past --slow-ms — dumps the
   request's span tree to the log. *)
let respond t ~trace ?enq (p : Protocol.parsed) : Obs.Json.t =
  let name = Protocol.request_name p.req in
  let t0 = Obs.Clock.now () in
  (match enq with
  | Some at when Obs.Metrics.enabled () ->
      Obs.Metrics.observe queue_wait_hist (t0 -. at)
  | _ -> ());
  let resp, spans =
    Obs.Span.collect @@ fun () ->
    try
      Obs.Span.with_ ~stage:"serve.request"
        ~attrs:[ ("trace", trace); ("type", name) ]
      @@ fun () ->
      match p.req with
      | Protocol.Layout_request
          { bench; strategy; config; profile; deadline_ms } ->
          handle_layout t ~id:p.id ~bench ~strategy ~cache_config:config
            ~profile ~deadline_ms
      | Protocol.Profile_upload u -> handle_upload t ~id:p.id u
      | Protocol.Lint_request { bench; strategy; min_prob } ->
          handle_lint t ~id:p.id ~bench ~strategy ~min_prob
      | Protocol.Stats -> handle_stats t ~id:p.id
      | Protocol.Subscribe { profiles } ->
          handle_subscribe t ~id:p.id ~profiles
      | Protocol.Health -> handle_health t ~id:p.id
      | Protocol.Shutdown ->
          Protocol.ok_response ~id:p.id ~request:"shutdown"
            [ ("stopping", Obs.Json.Bool true) ]
    with exn ->
      Protocol.error_response ~id:p.id ~request:name (Protocol.error_of_exn exn)
  in
  let dt = Obs.Clock.now () -. t0 in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.observe (latency_hist name) dt;
    Obs.Metrics.observe (latency_hist "all") dt
  end;
  (match t.config.slow_ms with
  | Some ms when dt *. 1000.0 > float_of_int ms ->
      Obs.Log.warn_raw
        (String.concat "\n"
           (Printf.sprintf "slow request %s (%s): %.2f ms (limit %d ms)" trace
              name (dt *. 1000.0) ms
           :: span_tree_lines spans))
  | _ -> ());
  with_trace trace resp

let oversize_response n limit =
  Protocol.error_response ~id:Obs.Json.Null ~request:"unknown"
    (Protocol.usage_error
       (Printf.sprintf "request too large: %d bytes (limit %d)" n limit))

(* ------------------------------------------------------------------ *)
(* The batched serve loop                                              *)
(* ------------------------------------------------------------------ *)

(* Each job carries the trace id assigned at read time and the enqueue
   timestamp (0 with metrics off — never read then). *)
type job =
  | Compute of { trace : string; enq : float; p : Protocol.parsed }
      (** read-only: dispatched across the pool *)
  | Immediate of Obs.Json.t  (** already answered (parse/size errors) *)

type item =
  | Job of job
  | Barrier of { trace : string; enq : float; p : Protocol.parsed }

(* A request line as read: its text or, when the bounded reader dropped
   an over-long payload, only its length in bytes. *)
type line = Text of string | Too_long of int

let classify t line : item option =
  let limit = t.config.max_request_bytes in
  match line with
  | Text s when String.trim s = "" -> None
  | _ -> (
      let trace = fresh_trace t in
      let enq = if Obs.Metrics.enabled () then Obs.Clock.now () else 0.0 in
      let immediate resp = Some (Job (Immediate (with_trace trace resp))) in
      match line with
      | Too_long n -> immediate (oversize_response n limit)
      | Text s when String.length s > limit ->
          immediate (oversize_response (String.length s) limit)
      | Text s -> (
          match
            Obs.Span.with_ ~stage:"serve.parse" ~attrs:[ ("trace", trace) ]
            @@ fun () -> Protocol.parse_request ~max_bytes:limit s
          with
          | Error (id, e) ->
              immediate (Protocol.error_response ~id ~request:"unknown" e)
          | Ok p -> (
              match p.req with
              | Protocol.Layout_request _ | Protocol.Lint_request _ ->
                  Some (Job (Compute { trace; enq; p }))
              | Protocol.Profile_upload _ | Protocol.Stats
              | Protocol.Subscribe _ | Protocol.Health | Protocol.Shutdown ->
                  Some (Barrier { trace; enq; p }))))

let account t resp =
  Mutex.protect t.lock @@ fun () ->
  let get j key =
    match Obs.Json.member key j with
    | Some (Obs.Json.String s) -> s
    | _ -> "unknown"
  in
  let bump l k =
    match List.assoc_opt k l with
    | Some n -> (k, n + 1) :: List.remove_assoc k l
    | None -> (k, 1) :: l
  in
  t.served <- t.served + 1;
  t.by_type <- bump t.by_type (get resp "request");
  let status = get resp "status" in
  t.by_status <- bump t.by_status status;
  (match Obs.Json.member "tier" resp with
  | Some (Obs.Json.String tier) -> t.by_tier <- bump t.by_tier tier
  | _ -> ());
  Obs.Metrics.incr requests_total;
  if status = "error" then Obs.Metrics.incr errors_total;
  if status = "timeout" then Obs.Metrics.incr timeouts_total

(* Generic loop over a line producer: collects read-only jobs into
   constant-width batches, fans each batch across the default pool,
   emits in input order, and handles barriers serially in between.
   Upload barriers additionally drain push-style staleness
   notifications right after their own response — serially, so the
   notification stream is deterministic at any -j.  A batch is also
   flushed when [ready] says the next read would block, so a lone
   client is answered without waiting for the batch to fill; batch
   boundaries never change the emitted bytes. *)
let serve_generic t ~(next : unit -> line option) ~(ready : unit -> bool)
    ~(emit : Obs.Json.t -> unit) =
  let emit_accounted resp =
    Obs.Span.with_ ~stage:"serve.emit" @@ fun () ->
    account t resp;
    emit resp
  in
  let flush jobs =
    let jobs = List.rev jobs in
    if jobs <> [] && Obs.Metrics.enabled () then
      Obs.Metrics.observe batch_size_hist (float_of_int (List.length jobs));
    let run = function
      | Compute { trace; enq; p } -> respond t ~trace ~enq p
      | Immediate r -> r
    in
    let responses =
      match Placement.Pool.default () with
      | Some pool when Placement.Pool.lanes pool > 1 && List.length jobs > 1 ->
          Placement.Pool.map pool run jobs
      | _ -> List.map run jobs
    in
    List.iter emit_accounted responses
  in
  let rec loop pending npending =
    if t.stopped then flush pending
    else if npending > 0 && not (ready ()) then begin
      flush pending;
      loop [] 0
    end
    else
      match next () with
      | None ->
          flush pending  (* EOF: answer everything already read *)
      | Some line -> (
          match classify t line with
          | None -> loop pending npending
          | Some (Job j) ->
              let pending = j :: pending and npending = npending + 1 in
              if npending >= t.config.max_batch then begin
                flush pending;
                loop [] 0
              end
              else loop pending npending
          | Some (Barrier { trace; enq; p }) ->
              flush pending;
              emit_accounted (respond t ~trace ~enq p);
              (* Notifications ride the same stream but are not
                 responses: emitted unaccounted (served/by_type count
                 requests, and the chaos pairing filters them out). *)
              List.iter emit (take_notifications t ~trace);
              (match p.req with
              | Protocol.Shutdown -> t.stopped <- true
              | _ -> ());
              if t.stopped then () else loop [] 0)
  in
  loop [] 0

(* Bounded line reader: never buffers more than the limit; an over-long
   line is consumed to its newline and reported by total length so the
   daemon can answer it with a structured error. *)
let read_bounded ic limit : line option =
  let buf = Buffer.create 256 in
  let over = ref 0 in
  let fin = ref false in
  let eof = ref false in
  while not !fin do
    match In_channel.input_char ic with
    | None ->
        fin := true;
        if Buffer.length buf = 0 && !over = 0 then eof := true
    | Some '\n' -> fin := true
    | Some _ when !over > 0 -> incr over
    | Some c ->
        if Buffer.length buf >= limit then over := Buffer.length buf + 1
        else Buffer.add_char buf c
  done;
  if !eof then None
  else if !over > 0 then Some (Too_long !over)
  else Some (Text (Buffer.contents buf))

(* Input is ready when the descriptor has bytes (or EOF) to read now.
   A line already sitting in the channel's buffer is not seen, which
   only flushes a batch early. *)
let input_ready ic =
  match Unix.select [ Unix.descr_of_in_channel ic ] [] [] 0.0 with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let serve_channels t ic oc =
  serve_generic t
    ~next:(fun () -> read_bounded ic t.config.max_request_bytes)
    ~ready:(fun () -> input_ready ic)
    ~emit:(fun resp ->
      (* [to_channel] already terminates the line. *)
      Obs.Json.to_channel oc resp;
      flush oc)

let run_lines t lines : Obs.Json.t list =
  let remaining = ref lines in
  let out = ref [] in
  serve_generic t
    ~next:(fun () ->
      match !remaining with
      | [] -> None
      | l :: rest ->
          remaining := rest;
          Some (Text l))
    ~ready:(fun () -> true)
    ~emit:(fun resp -> out := resp :: !out);
  List.rev !out

let stopped t = t.stopped

(* ------------------------------------------------------------------ *)
(* Unix-socket front end                                               *)
(* ------------------------------------------------------------------ *)

let serve_socket t ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      while not t.stopped do
        let fd, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        (* A client disconnecting mid-stream must not kill the daemon:
           treat any channel failure as that connection ending. *)
        (try serve_channels t ic oc with Sys_error _ | End_of_file -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      done)
