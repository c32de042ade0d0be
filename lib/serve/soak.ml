(* Soak harness: a seeded, chaos-weighted workload driven through the
   daemon for a wall-clock duration, with memory kept under an asserted
   ceiling.

   Each round sends a bounded batch through [Daemon.run_lines]: the
   chaos generator's adversarial mix, plus one layout-request against
   the soak profile (so a map is always cached and can go stale) and a
   periodic epoch-advancing upload (so staleness notifications actually
   push — the subscribe-all client registered in the preamble observes
   them).  Between rounds the harness samples memory — OCaml live words
   from [Gc.stat] and resident-set bytes from /proc/self/statm — into
   the [serve.live_words]/[serve.rss_bytes] gauges and tracks the
   maxima.

   The report ([impact.soak/v1]) asserts the contract a long-running
   service must keep: every request answered (notifications split out),
   statuses within each category's expectation, at least one staleness
   notification observed, exactly-once notification per (layout,
   epoch), nonzero latency quantiles, and max live bytes under the
   ceiling.  Any breach lands in [violations] and fails the run. *)

type config = {
  seed : int;
  duration_s : float;
  interval_s : float;  (* memory sampling period *)
  ceiling_bytes : int;  (* max OCaml live bytes tolerated *)
  round_requests : int;  (* chaos requests per round *)
  daemon : Daemon.config;
}

let default_config () =
  {
    seed = 0x50AC;
    duration_s = 30.0;
    interval_s = 1.0;
    ceiling_bytes = 512 * 1024 * 1024;
    round_requests = 24;
    daemon = Chaos.default_config ();
  }

type report = {
  seed : int;
  duration_s : float;  (* actually elapsed *)
  rounds : int;
  requests : int;
  responses : int;
  notifications : int;
  ok : int;
  errors : int;
  timeouts : int;
  latency_all : Obs.Metrics.histogram;
  latency_layout : Obs.Metrics.histogram;
  memory_samples : int;
  max_live_bytes : int;
  max_rss_bytes : int;
  ceiling_bytes : int;
  evictions_profiles : int;
  evictions_maps : int;
  violations : string list;
}

let live_words_gauge =
  Obs.Metrics.gauge "serve.live_words"
    ~help:"OCaml heap live words at the last soak sample"

let rss_gauge =
  Obs.Metrics.gauge "serve.rss_bytes"
    ~help:"Resident set size at the last soak sample"

(* Resident set in bytes from /proc/self/statm (field 2 is resident
   pages); 0 where /proc is unavailable. *)
let rss_bytes () =
  match open_in "/proc/self/statm" with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match String.split_on_char ' ' (input_line ic) with
        | _ :: resident :: _ ->
          (match int_of_string_opt resident with
          | Some pages -> pages * 4096
          | None -> 0)
        | _ -> 0
        | exception End_of_file -> 0)

let word_bytes = Sys.word_size / 8

let sample_memory () =
  let live_bytes = (Gc.stat ()).Gc.live_words * word_bytes in
  let rss = rss_bytes () in
  Obs.Metrics.set live_words_gauge (float_of_int (live_bytes / word_bytes));
  Obs.Metrics.set rss_gauge (float_of_int rss);
  (live_bytes, rss)

let is_notification j =
  match Obs.Json.member "type" j with
  | Some (Obs.Json.String "notification") -> true
  | _ -> false

let line_of json = Obs.Json.to_string json

let run ?(config = default_config ()) () : report =
  let metrics_were_on = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  if Obs.Span.enabled () then Obs.Span.set_cap (Some 65_536);
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled metrics_were_on)
  @@ fun () ->
  let daemon = Daemon.create ~config:config.daemon () in
  let benches =
    match config.daemon.Daemon.benches with
    | Some l -> l
    | None -> Workloads.Registry.names
  in
  let bench0 = List.hd benches in
  let rng = Workloads.Rng.create config.seed in
  let entry = Experiments.Context.find (Daemon.context daemon) bench0 in
  let pipe = Experiments.Context.pipeline entry in
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun m -> violations := !violations @ [ m ]) fmt
  in
  (* Exactly-once ledger: (profile, strategy, kind, epoch) already seen
     in a notification must never reappear. *)
  let seen_stale = Hashtbl.create 64 in
  let requests = ref 0
  and responses = ref 0
  and notifications = ref 0
  and ok = ref 0
  and errors = ref 0
  and timeouts = ref 0 in
  let absorb cats emitted =
    let notes, resps = List.partition is_notification emitted in
    responses := !responses + List.length resps;
    notifications := !notifications + List.length notes;
    if List.length resps <> List.length cats then
      violate "round answered %d of %d requests" (List.length resps)
        (List.length cats);
    List.iteri
      (fun i resp ->
        match Obs.Json.member "status" resp with
        | Some (Obs.Json.String "ok") -> incr ok
        | Some (Obs.Json.String "error") -> incr errors
        | Some (Obs.Json.String "timeout") -> incr timeouts
        | _ -> violate "response %d of a round has no status" i)
      resps;
    (* Status-contract check per category, in order. *)
    (if List.length resps = List.length cats then
       List.iter2
         (fun (cat, expected) resp ->
           match Obs.Json.member "status" resp with
           | Some (Obs.Json.String s) when List.mem s expected -> ()
           | Some (Obs.Json.String s) ->
             violate "category %s answered %S (expected one of [%s])" cat s
               (String.concat "; " expected)
           | _ -> ())
         cats resps);
    List.iter
      (fun n ->
        let profile =
          match Obs.Json.member "profile" n with
          | Some (Obs.Json.String p) -> p
          | _ ->
            violate "notification without profile";
            "?"
        in
        let epoch =
          match Obs.Json.member "epoch" n with
          | Some (Obs.Json.Int e) -> e
          | _ ->
            violate "notification without epoch";
            -1
        in
        match Obs.Json.member "stale" n with
        | Some (Obs.Json.List rows) when rows <> [] ->
          List.iter
            (fun row ->
              let str k =
                match Obs.Json.member k row with
                | Some (Obs.Json.String s) -> s
                | _ -> "?"
              in
              let key = (profile, str "strategy", str "kind", epoch) in
              if Hashtbl.mem seen_stale key then
                violate
                  "duplicate staleness notification for %s/%s/%s epoch %d"
                  profile (str "strategy") (str "kind") epoch
              else Hashtbl.add seen_stale key ())
            rows
        | _ -> violate "notification with empty stale list")
      notes
  in
  let send cats lines =
    requests := !requests + List.length lines;
    absorb cats (Daemon.run_lines daemon lines)
  in
  (* Preamble: a subscribe-all client, a flow-conserving upload into the
     soak profile, and one layout against it so a map is cached (and
     can later go stale). *)
  send
    [
      ("subscribe", [ "ok" ]);
      ("upload-valid", [ "ok" ]);
      ("layout-profile", [ "ok" ]);
    ]
    [
      line_of
        (Obs.Json.Obj
           [
             ("schema", Obs.Json.String Protocol.schema);
             ("id", Obs.Json.String "soak-sub");
             ("type", Obs.Json.String "subscribe");
           ]);
      line_of
        (Protocol.upload_request_of_profile
           ~id:(Obs.Json.String "soak-seed") ~name:"soak" ~bench:bench0
           ~epoch:1 pipe.Placement.Pipeline.profile);
      line_of
        (Obs.Json.Obj
           [
             ("schema", Obs.Json.String Protocol.schema);
             ("id", Obs.Json.String "soak-map");
             ("type", Obs.Json.String "layout-request");
             ("bench", Obs.Json.String bench0);
             ("strategy", Obs.Json.String "impact");
             ("profile", Obs.Json.String "soak");
           ]);
    ];
  let t0 = Obs.Clock.now () in
  let last_sample = ref t0 in
  let max_live = ref 0 and max_rss = ref 0 and samples = ref 0 in
  let take_sample () =
    let live, rss = sample_memory () in
    incr samples;
    if live > !max_live then max_live := live;
    if rss > !max_rss then max_rss := rss;
    last_sample := Obs.Clock.now ()
  in
  take_sample ();
  let rounds = ref 0 in
  let epoch = ref 1 in
  while Obs.Clock.now () -. t0 < config.duration_s do
    incr rounds;
    let chaos_part =
      List.init config.round_requests (fun i ->
          let cat, expected, l =
            Chaos.generate rng ~benches ~config:config.daemon
              (((!rounds - 1) * config.round_requests) + i)
          in
          ((cat, expected), l))
    in
    (* One layout against the soak profile every round keeps a map
       cached at the current revision... *)
    let layout_soak =
      ( ("layout-soak", [ "ok" ]),
        line_of
          (Obs.Json.Obj
             [
               ("schema", Obs.Json.String Protocol.schema);
               ("id", Obs.Json.String (Printf.sprintf "soak-l%d" !rounds));
               ("type", Obs.Json.String "layout-request");
               ("bench", Obs.Json.String bench0);
               ("strategy", Obs.Json.String "impact");
               ("profile", Obs.Json.String "soak");
             ]) )
    in
    (* ...and every third round an epoch-advancing upload makes it
       stale, driving a push notification to the subscriber. *)
    let upload_part =
      if !rounds mod 3 = 1 then begin
        incr epoch;
        [
          ( ("upload-advance", [ "ok" ]),
            line_of
              (Protocol.upload_request_of_profile
                 ~id:(Obs.Json.String (Printf.sprintf "soak-u%d" !rounds))
                 ~name:"soak" ~bench:bench0 ~epoch:!epoch
                 pipe.Placement.Pipeline.profile) );
        ]
      end
      else []
    in
    let batch = (layout_soak :: chaos_part) @ upload_part in
    send (List.map fst batch) (List.map snd batch);
    if Obs.Clock.now () -. !last_sample >= config.interval_s then
      take_sample ()
  done;
  take_sample ();
  (* Map evictions as this daemon's own stats report them: the
     [serve.map_evictions] metric also counts every other daemon in the
     process. *)
  let evictions_maps =
    let stats =
      Daemon.run_lines daemon
        [
          line_of
            (Obs.Json.Obj
               [
                 ("schema", Obs.Json.String Protocol.schema);
                 ("id", Obs.Json.String "soak-stats");
                 ("type", Obs.Json.String "stats");
               ]);
        ]
    in
    match
      List.filter_map (Obs.Json.member "evictions") stats
      |> List.filter_map (Obs.Json.member "maps")
    with
    | [ Obs.Json.Int n ] -> n
    | _ ->
      violate "final stats response lacks evictions.maps";
      0
  in
  let latency_all = Daemon.latency_hist "all" in
  let latency_layout = Daemon.latency_hist "layout-request" in
  if !notifications = 0 then
    violate "no staleness notification observed by the subscriber";
  if !max_live > config.ceiling_bytes then
    violate "max live bytes %d exceeded the ceiling %d" !max_live
      config.ceiling_bytes;
  if !responses > 0 && Obs.Metrics.hist_quantile latency_all 0.5 <= 0.0 then
    violate "p50 latency is zero despite %d responses" !responses;
  if !responses > 0 && Obs.Metrics.hist_quantile latency_all 0.99 <= 0.0 then
    violate "p99 latency is zero despite %d responses" !responses;
  {
    seed = config.seed;
    duration_s = Obs.Clock.now () -. t0;
    rounds = !rounds;
    requests = !requests;
    responses = !responses;
    notifications = !notifications;
    ok = !ok;
    errors = !errors;
    timeouts = !timeouts;
    latency_all;
    latency_layout;
    memory_samples = !samples;
    max_live_bytes = !max_live;
    max_rss_bytes = !max_rss;
    ceiling_bytes = config.ceiling_bytes;
    evictions_profiles = Store.evictions_total (Daemon.store daemon);
    evictions_maps;
    violations = !violations;
  }

let latency_json h =
  let ms p = Obs.Json.Float (1000.0 *. Obs.Metrics.hist_quantile h p) in
  Obs.Json.Obj
    [
      ("count", Obs.Json.Int (Obs.Metrics.hist_count h));
      ("mean_ms", Obs.Json.Float (1000.0 *. Obs.Metrics.hist_mean h));
      ("p50_ms", ms 0.50);
      ("p90_ms", ms 0.90);
      ("p99_ms", ms 0.99);
      ("max_ms", Obs.Json.Float (1000.0 *. Obs.Metrics.hist_max h));
    ]

let report_json (r : report) =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "impact.soak/v1");
      ("seed", Obs.Json.Int r.seed);
      ("duration_s", Obs.Json.Float r.duration_s);
      ("rounds", Obs.Json.Int r.rounds);
      ("requests", Obs.Json.Int r.requests);
      ("responses", Obs.Json.Int r.responses);
      ("notifications", Obs.Json.Int r.notifications);
      ("ok", Obs.Json.Int r.ok);
      ("errors", Obs.Json.Int r.errors);
      ("timeouts", Obs.Json.Int r.timeouts);
      ( "latency",
        Obs.Json.Obj
          [
            ("all", latency_json r.latency_all);
            ("layout-request", latency_json r.latency_layout);
          ] );
      ( "memory",
        Obs.Json.Obj
          [
            ("samples", Obs.Json.Int r.memory_samples);
            ("max_live_bytes", Obs.Json.Int r.max_live_bytes);
            ("max_rss_bytes", Obs.Json.Int r.max_rss_bytes);
            ("ceiling_bytes", Obs.Json.Int r.ceiling_bytes);
            ( "ceiling_ok",
              Obs.Json.Bool (r.max_live_bytes <= r.ceiling_bytes) );
          ] );
      ( "evictions",
        Obs.Json.Obj
          [
            ("profiles", Obs.Json.Int r.evictions_profiles);
            ("maps", Obs.Json.Int r.evictions_maps);
          ] );
      ( "violations",
        Obs.Json.List (List.map (fun v -> Obs.Json.String v) r.violations) );
    ]

let summary (r : report) =
  Printf.sprintf
    "soak: seed %#x, %.1fs, %d rounds, %d requests -> %d responses + %d \
     notifications (%d ok, %d error, %d timeout), p50 %.2f ms, p99 %.2f ms, \
     max live %.1f MB (ceiling %.1f MB), %d violation%s"
    r.seed r.duration_s r.rounds r.requests r.responses r.notifications r.ok
    r.errors r.timeouts
    (1000.0 *. Obs.Metrics.hist_quantile r.latency_all 0.5)
    (1000.0 *. Obs.Metrics.hist_quantile r.latency_all 0.99)
    (float_of_int r.max_live_bytes /. 1048576.0)
    (float_of_int r.ceiling_bytes /. 1048576.0)
    (List.length r.violations)
    (if List.length r.violations = 1 then "" else "s")
