(* The layout-service daemon.

   One JSON request per line in, one JSON response per line out, in
   input order.  Robustness is the design axis: every failure a request
   can provoke — malformed JSON, unknown schema, a strategy that raises,
   an invalid cache geometry, an oversized payload — becomes a
   structured error response on that request alone; the daemon never
   dies and never skips a response.

   Determinism: each request is answered as it is read, before the next
   line is read, so responses leave strictly in input order and every
   request sees the effects of all requests before it.  No response
   contains a wall-clock value, so a replay of the same request stream
   is byte-identical, which the golden-vector replay checker enforces
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

(* Latency histograms.  Registered lazily per request type; all no-ops
   while the metrics registry is disabled (the replay path), so the
   determinism contract is untouched. *)
let latency_hist name =
  Obs.Metrics.histogram
    ("serve.latency." ^ name ^ ".seconds")
    ~help:"Wall-clock handling time per request of this type"

(* Deadlines at or below this admit only the cheapest strategy. *)
let cheap_threshold_ms = 5

(* Floor of the [retry_after_ms] hint. *)
let retry_base_ms = 25

type config = {
  deadline_ms : int;
  max_request_bytes : int;
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
    max_request_bytes = 1 lsl 20;
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
  started_at : float;  (* wall clock at create; stats uptime *)
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
      (* trace-id source; bumped once per request line as it is read,
         so ids are deterministic in input order *)
  mutable subs : string list option list;
      (* subscription filters in arrival order; None = every profile *)
  mutable notifications_sent : int;
  notified : (string * string * int, unit) Hashtbl.t;
      (* (profile, strategy|kind, epoch) already pushed — the
         exactly-once guard; pruned below the live epoch window *)
  mutable last_upload : (string * Store.outcome) option;
      (* set by an accepted upload, drained right after its response *)
  mutable stopped : bool;
}

let create ?(config = default_config) () =
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

(* Trace ids: assigned as each line is read, so the id of the Nth
   request line is always t-%06d of N — byte-identical across replays. *)
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
        (Experiments.Context.absint_program entry))

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

let retry_after deadline =
  min 10_000 (max retry_base_ms (2 * deadline))

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

(* Raised by [handle_layout] when the deadline cannot be or was not met;
   [respond] answers it with a typed timeout carrying this retry-after
   hint in milliseconds. *)
exception Timeout of int

let handle_layout t ~bench ~strategy ~cache_config ~profile ~deadline_ms =
  let deadline = Option.value ~default:t.config.deadline_ms deadline_ms in
  (* A zero deadline can never be met: deterministic typed timeout. *)
  if deadline = 0 then raise (Timeout (retry_after deadline));
  let t0 = Obs.Clock.now () in
  let entry, strat, cheap =
    Obs.Span.with_ ~stage:"serve.admission"
      ~attrs:
        [ ("deadline_ms", string_of_int deadline); ("strategy", strategy) ]
    @@ fun () ->
    let entry = Experiments.Context.find t.context bench in
    let strat = find_strategy t strategy in
    (entry, strat, deadline <= cheap_threshold_ms)
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
  (* What the cheap tier, a raising strategy and the over-deadline
     checkpoint all serve. *)
  let natural () =
    (Placement.Strategy.natural, Experiments.Context.natural_map entry)
  in
  let (effective, map), fell_back =
    Obs.Span.with_ ~stage:"serve.strategy-map" @@ fun () ->
    match (source_prof, source_name) with
    | _ when cheap ->
        (* Admission control: the deadline only admits the cheapest
           layout.  Deterministic — no clock involved. *)
        (natural (), false)
    | Some prof, Some (pname, revision) -> (
        try
          let map =
            custom_map t entry strat ~pname ~revision ~kind:source prof
          in
          ((strat, map), false)
        with _ -> (natural (), true))
    | _ ->
        (* [strategy_map] records a fallback, so it runs first. *)
        let map = Experiments.Context.strategy_map entry strat in
        if Experiments.Context.fell_back entry strat.id then (natural (), true)
        else ((strat, map), false)
  in
  (* Checkpoint: layout built but the deadline already passed — finish
     with the cheapest result rather than burning more of it. *)
  let over_before_sim = (not cheap) && elapsed_ms t0 > deadline in
  let effective, map =
    if over_before_sim then natural () else (effective, map)
  in
  (* The cheap tier never replays a trace: it answers with the memoized
     abstract interpretation's certified miss interval over the natural
     layout — a sound promise, not a simulation — under whichever
     profile weights the request resolved to (uploaded snapshot or
     builtin).  Every other tier simulates as before. *)
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
        Analysis.Absint.profile_interval a
          ~weights:(Placement.Weight.cfg_of_profile prof)
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
  (* The cheap-admission tier is a deterministic promise — degrade and
     serve — so the wall-clock timeout only applies outside it. *)
  if (not cheap) && elapsed_ms t0 > deadline then
    raise (Timeout (retry_after deadline));
  let tier =
    if cheap || over_before_sim then "cheapest-strategy"
    else if profile <> None && source <> "fresh" then "last-good-epoch"
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

(* ------------------------------------------------------------------ *)
(* The other request kinds                                             *)
(* ------------------------------------------------------------------ *)

let handle_upload t (u : Protocol.upload) =
  let entry = Experiments.Context.find t.context u.bench in
  let prog = (Experiments.Context.pipeline entry).Placement.Pipeline.program in
  let o = Store.upload t.store ~prog u in
  (* The serve loop drains this into staleness notifications right
     after emitting this response. *)
  if o.accepted then t.last_upload <- Some (u.profile, o);
  [ ("accepted", Obs.Json.Bool o.accepted) ]
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
    ]

let handle_lint t ~bench ~strategy ~min_prob =
  let entry = Experiments.Context.find t.context bench in
  let strat = find_strategy t strategy in
  let r = Experiments.Lint_exp.lint_entry ?min_prob entry strat in
  [
    ("bench", Obs.Json.String bench);
    ("fell_back", Obs.Json.Bool r.Experiments.Lint_exp.fell_back);
    ("result", Experiments.Lint_exp.result_json r);
  ]

(* Quantile summary of one latency-class histogram, in milliseconds.
   With the metrics registry disabled (the replay path) every field is
   exactly zero, keeping stats free of wall-clock values there. *)
let quantiles_ms_json h =
  let ms p = Obs.Json.Float (1000.0 *. Obs.Metrics.hist_quantile h p) in
  Obs.Json.Obj
    [
      ("count", Obs.Json.Int (Obs.Metrics.hist_count h));
      ("p50_ms", ms 0.50);
      ("p90_ms", ms 0.90);
      ("p99_ms", ms 0.99);
    ]

(* Stats reads the emit-time counters, so its numbers are exact for
   everything already on the wire. *)
let handle_stats t =
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
  [
    ("stats_version", Obs.Json.Int 3);
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
    ("profiles", Store.stats_json t.store);
    ( "limits",
      Obs.Json.Obj
        [
          ("profile_cap", Obs.Json.Int t.config.profile_cap);
          ("memo_cap", Obs.Json.Int t.config.memo_cap);
          ("strategy_cap", Obs.Json.Int t.config.strategy_cap);
          ("map_cap", Obs.Json.Int t.config.map_cap);
          ("epoch_window", Obs.Json.Int t.config.epoch_window);
          ("max_request_bytes", Obs.Json.Int t.config.max_request_bytes);
          ("deadline_ms", Obs.Json.Int t.config.deadline_ms);
        ] );
  ]

(* Every upload after a subscribe is observed by it.  Duplicate filters
   collapse, so a client re-subscribing in a retry loop cannot grow the
   daemon. *)
let handle_subscribe t ~profiles =
  Mutex.protect t.lock @@ fun () ->
  if not (List.mem profiles t.subs) then t.subs <- t.subs @ [ profiles ];
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
let handle_health t =
  let poisoned = Store.poisoned_count t.store in
  Mutex.protect t.lock @@ fun () ->
  let tier k = Option.value ~default:0 (List.assoc_opt k t.by_tier) in
  let fallbacks = tier "natural-fallback" in
  let degraded = poisoned > 0 || fallbacks > 0 in
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

(* After an accepted upload, every cached address map for that profile
   at an older revision is stale.  Each (profile, strategy|kind, epoch)
   is pushed at most once — the [notified] table is the exactly-once
   guard — and only while some subscription filter matches, so an
   unobserved staleness costs nothing.  Runs right after the upload's
   own response, keeping notification order deterministic. *)
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
        Hashtbl.filter_map_inplace
          (fun (p, _, e) () ->
            if p = pname && e < o.Store.min_live then None else Some ())
          t.notified;
        let guard (strat, kind, _) =
          (pname, strat ^ "|" ^ kind, o.Store.epoch)
        in
        (* One staleness fact per (strategy, kind): several cached
           revisions of the same map collapse to the newest. *)
        let newest = Hashtbl.create 8 in
        Mutex.protect t.lock (fun () ->
            Placement.Bounded.fold
              (fun (p, rev, kind, strat) _ () ->
                if p = pname && rev < o.Store.revision then
                  Hashtbl.replace newest (strat, kind)
                    (match Hashtbl.find_opt newest (strat, kind) with
                    | Some r -> Int.max r rev
                    | None -> rev))
              t.map_cache ());
        let stale =
          Hashtbl.fold (fun (s, k) rev acc -> (s, k, rev) :: acc) newest []
          |> List.filter (fun row -> not (Hashtbl.mem t.notified (guard row)))
          |> List.sort compare
        in
        if stale = [] then []
        else begin
          List.iter
            (fun row -> Hashtbl.replace t.notified (guard row) ())
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
   handlers return only their fields; this is the one place that wraps
   them in the ok envelope, answers [Timeout] with a typed timeout, and
   maps every other exception (a refusal is a [Failure]) through
   {!Protocol.error_of_exn}.  The whole dispatch runs inside a
   [serve.request] span (child spans mark
   parse/admission/store-lookup/strategy-map/simulate), feeds the
   per-type latency histograms, and — past --slow-ms — dumps the
   request's span tree to the log. *)
let respond t ~trace (p : Protocol.parsed) : Obs.Json.t =
  let name = Protocol.request_name p.req in
  let t0 = Obs.Clock.now () in
  let resp, spans =
    Obs.Span.collect @@ fun () ->
    try
      Obs.Span.with_ ~stage:"serve.request"
        ~attrs:[ ("trace", trace); ("type", name) ]
      @@ fun () ->
      Protocol.ok_response ~id:p.id ~request:name
        (match p.req with
        | Protocol.Layout_request
            { bench; strategy; config; profile; deadline_ms } ->
            handle_layout t ~bench ~strategy ~cache_config:config ~profile
              ~deadline_ms
        | Protocol.Profile_upload u -> handle_upload t u
        | Protocol.Lint_request { bench; strategy; min_prob } ->
            handle_lint t ~bench ~strategy ~min_prob
        | Protocol.Stats -> handle_stats t
        | Protocol.Subscribe { profiles } -> handle_subscribe t ~profiles
        | Protocol.Health -> handle_health t
        | Protocol.Shutdown -> [ ("stopping", Obs.Json.Bool true) ])
    with
    | Timeout retry_after_ms ->
        Protocol.timeout_response ~id:p.id ~request:name ~retry_after_ms
    | exn ->
        Protocol.error_response ~id:p.id ~request:name
          (Protocol.error_of_exn exn)
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
(* The serve loop                                                      *)
(* ------------------------------------------------------------------ *)

(* A request line as read: its text or, when the bounded reader dropped
   an over-long payload, only its length in bytes. *)
type line = Text of string | Too_long of int

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

(* Generic loop over a line producer: each request is answered and
   emitted before the next line is read.  Size and parse errors are
   answered at once; everything else goes through [respond].  An upload
   additionally drains push-style staleness notifications right after
   its own response.  Stops at EOF or after a shutdown request. *)
let serve_generic t ~(next : unit -> line option)
    ~(emit : Obs.Json.t -> unit) =
  let limit = t.config.max_request_bytes in
  let answer trace = function
    | Too_long n -> with_trace trace (oversize_response n limit)
    | Text s when String.length s > limit ->
        with_trace trace (oversize_response (String.length s) limit)
    | Text s -> (
        match
          Obs.Span.with_ ~stage:"serve.parse" ~attrs:[ ("trace", trace) ]
          @@ fun () -> Protocol.parse_request ~max_bytes:limit s
        with
        | Error (id, e) ->
            with_trace trace (Protocol.error_response ~id ~request:"unknown" e)
        | Ok p ->
            (* The shutdown's own response is the last one emitted. *)
            (match p.req with Protocol.Shutdown -> t.stopped <- true | _ -> ());
            respond t ~trace p)
  in
  let rec loop () =
    if not t.stopped then
      match next () with
      | None -> ()
      | Some (Text s) when String.trim s = "" -> loop ()
      | Some line ->
          let trace = fresh_trace t in
          let resp = answer trace line in
          Obs.Span.with_ ~stage:"serve.emit" (fun () ->
              account t resp;
              emit resp);
          (* Notifications ride the same stream but are not responses:
             emitted unaccounted (served/by_type count requests, and the
             chaos pairing filters them out). *)
          List.iter emit (take_notifications t ~trace);
          loop ()
  in
  loop ()

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

let serve_channels t ic oc =
  serve_generic t
    ~next:(fun () -> read_bounded ic t.config.max_request_bytes)
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
    ~emit:(fun resp -> out := resp :: !out);
  List.rev !out

let stopped t = t.stopped

(* ------------------------------------------------------------------ *)
(* Unix-socket front end                                               *)
(* ------------------------------------------------------------------ *)

let serve_socket t ~path =
  (* Replace a socket left behind by an earlier daemon, never anything
     else that lives at [path]. *)
  (match (Unix.lstat path).Unix.st_kind with
  | Unix.S_SOCK -> Unix.unlink path
  | _ ->
      failwith
        (Printf.sprintf "%s exists and is not a socket; not replacing it" path)
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  (* A client that hangs up before its reply must not kill the daemon
     with SIGPIPE: ignored, the write fails with a [Sys_error] instead. *)
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigpipe sigpipe;
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
           treat any channel failure as that connection ending.  Closing
           through [oc] also drops a reply that could not be written, so
           no exit-time flush retries it on a reused descriptor. *)
        (try serve_channels t ic oc with Sys_error _ | End_of_file -> ());
        close_out_noerr oc
      done)
