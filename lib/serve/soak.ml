(* Soak harness: a seeded, chaos-weighted workload driven through the
   daemon for a wall-clock duration, with memory kept under an asserted
   ceiling.

   The chaos prelude registers a subscribe-all client and caches a map
   on the soak profile.  Each round then sends a bounded batch through
   [Daemon.run_lines]: the chaos generator's adversarial mix, one
   layout-request against the soak profile (so a map is always cached
   and can go stale) and, every third round, an epoch-advancing upload
   (so staleness notifications keep pushing).  Every batch goes through
   the chaos harness's contract checker, whose exactly-once ledger
   spans the whole soak.  Between rounds the harness samples memory —
   OCaml live words from [Gc.stat] and resident-set bytes from the
   [VmRSS:] line of /proc/self/status — into the
   [serve.live_words]/[serve.rss_bytes] gauges and tracks the maxima.

   The report ([impact.soak/v1]) carries the checker's violations plus
   the soak's own: max live bytes over the ceiling, zero latency
   quantiles, and a final stats response without [evictions.maps].
   Any breach fails the run. *)

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

(* Resident set in bytes from the [VmRSS:] line of /proc/self/status,
   which the kernel reports in kB whatever its page size; 0 where /proc
   is unavailable. *)
let rss_bytes () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_lines with
  | exception Sys_error _ -> 0
  | lines ->
    List.find_map
      (fun l -> Scanf.sscanf_opt l "VmRSS: %d kB" (fun kb -> kb * 1024))
      lines
    |> Option.value ~default:0

let word_bytes = Sys.word_size / 8

let sample_memory () =
  let live_bytes = (Gc.stat ()).Gc.live_words * word_bytes in
  let rss = rss_bytes () in
  Obs.Metrics.set live_words_gauge (float_of_int (live_bytes / word_bytes));
  Obs.Metrics.set rss_gauge (float_of_int rss);
  (live_bytes, rss)

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
  let pipe =
    Experiments.Context.pipeline
      (Experiments.Context.find (Daemon.context daemon) bench0)
  in
  let contract = Chaos.checker () in
  let send batch =
    Chaos.check contract (List.map fst batch)
      (Daemon.run_lines daemon (List.map snd batch))
  in
  let request ~id ~typ fields =
    Obs.Json.to_string
      (Protocol.request ~id:(Obs.Json.String id) ~typ fields)
  in
  (* The chaos prelude caches a map on the soak profile at epoch 2 and
     registers the subscribe-all client that observes its staleness. *)
  send (Chaos.prelude daemon ~bench:bench0 ~profile:"soak");
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
  let epoch = ref 2 in
  while Obs.Clock.now () -. t0 < config.duration_s do
    incr rounds;
    let chaos_part =
      List.init config.round_requests (fun i ->
          Chaos.generate rng ~benches ~config:config.daemon
            (((!rounds - 1) * config.round_requests) + i))
    in
    (* One layout against the soak profile every round keeps a map
       cached at the current revision... *)
    let layout_soak =
      ( ("layout-soak", [ "ok" ]),
        request
          ~id:(Printf.sprintf "soak-l%d" !rounds)
          ~typ:"layout-request"
          [
            ("bench", Obs.Json.String bench0);
            ("strategy", Obs.Json.String "impact");
            ("profile", Obs.Json.String "soak");
          ] )
    in
    (* ...and every third round an epoch-advancing upload makes it
       stale, driving a push notification to the subscriber. *)
    let upload_part =
      if !rounds mod 3 = 1 then begin
        incr epoch;
        [
          ( ("upload-advance", [ "ok" ]),
            Obs.Json.to_string
              (Protocol.upload_request_of_profile
                 ~id:(Obs.Json.String (Printf.sprintf "soak-u%d" !rounds))
                 ~name:"soak" ~bench:bench0 ~epoch:!epoch
                 pipe.Placement.Pipeline.profile) );
        ]
      end
      else []
    in
    send ((layout_soak :: chaos_part) @ upload_part);
    if Obs.Clock.now () -. !last_sample >= config.interval_s then
      take_sample ()
  done;
  take_sample ();
  let c = Chaos.finish contract ~seed:config.seed in
  let own = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> own := !own @ [ m ]) fmt in
  (* Map evictions as this daemon's own stats report them: the
     [serve.map_evictions] metric also counts every other daemon in the
     process. *)
  let evictions_maps =
    match
      Daemon.run_lines daemon [ request ~id:"soak-stats" ~typ:"stats" [] ]
      |> List.filter_map (Obs.Json.member "evictions")
      |> List.filter_map (Obs.Json.member "maps")
    with
    | [ Obs.Json.Int n ] -> n
    | _ ->
      violate "final stats response lacks evictions.maps";
      0
  in
  let latency_all = Daemon.latency_hist "all" in
  let latency_layout = Daemon.latency_hist "layout-request" in
  if !max_live > config.ceiling_bytes then
    violate "max live bytes %d exceeded the ceiling %d" !max_live
      config.ceiling_bytes;
  if c.responses > 0 && Obs.Metrics.hist_quantile latency_all 0.5 <= 0.0 then
    violate "p50 latency is zero despite %d responses" c.responses;
  if c.responses > 0 && Obs.Metrics.hist_quantile latency_all 0.99 <= 0.0 then
    violate "p99 latency is zero despite %d responses" c.responses;
  {
    seed = config.seed;
    duration_s = Obs.Clock.now () -. t0;
    rounds = !rounds;
    requests = c.requests;
    responses = c.responses;
    notifications = c.notifications;
    ok = c.ok;
    errors = c.errors;
    timeouts = c.timeouts;
    latency_all;
    latency_layout;
    memory_samples = !samples;
    max_live_bytes = !max_live;
    max_rss_bytes = !max_rss;
    ceiling_bytes = config.ceiling_bytes;
    evictions_profiles = Store.evictions_total (Daemon.store daemon);
    evictions_maps;
    violations = c.violations @ !own;
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
