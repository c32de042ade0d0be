(* serve — the fault-tolerant layout service.

   Modes:
   - default: speak `impact.serve/v1` over stdio (one JSON request per
     line in, one response per line out).
   - --socket PATH: same protocol over a Unix socket, connections
     served sequentially.
   - --sample: print a deterministic request stream exercising the ok,
     error, timeout and degradation paths — the golden-vector input.
   - --replay FILE [--expect FILE]: run a request file through the full
     batched serve loop and print the responses; with --expect, compare
     byte-for-byte against the recorded responses and fail on the first
     divergence (the determinism gate: `-j 1` and `-j N` must agree
     with the recording exactly).
   - --chaos: run the seeded fault-injection campaign and fail unless
     every contract holds.
   - --soak SECONDS: drive the seeded chaos-weighted soak workload for
     the given duration with telemetry on, assert the memory ceiling,
     and emit an `impact.soak/v1` report.

   Telemetry: --trace-out FILE enables request spans and writes one
   Chrome trace for the session on exit; --slow-ms N additionally dumps
   the span tree of any request slower than N ms to stderr;
   --metrics-out FILE writes the metrics dump (with latency quantiles)
   on exit. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Daemon configuration flags                                          *)
(* ------------------------------------------------------------------ *)

let benches_arg =
  let doc = "Resident benchmarks (default: the full ten-program suite)." in
  Arg.(value & opt (some (list string)) None & info [ "b"; "benchmarks" ] ~doc)

let scale_arg =
  let doc = "Workload scale factor of the resident contexts." in
  Arg.(value & opt Cli.positive 1 & info [ "scale" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc = "Default per-request deadline in milliseconds." in
  Arg.(
    value
    & opt int Serve.Daemon.default_config.deadline_ms
    & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let positive_arg name default doc =
  Arg.(value & opt Cli.positive default & info [ name ] ~docv:"N" ~doc)

let max_bytes_arg =
  positive_arg "max-request-bytes"
    Serve.Daemon.default_config.max_request_bytes
    "Maximum request-line size in bytes."

let profile_cap_arg =
  positive_arg "profile-cap" Serve.Daemon.default_config.profile_cap
    "LRU bound on named profiles in the store."

let memo_cap_arg =
  positive_arg "memo-cap" Serve.Daemon.default_config.memo_cap
    "Per-benchmark LRU bound on memoized simulation results."

let strategy_cap_arg =
  positive_arg "strategy-cap" Serve.Daemon.default_config.strategy_cap
    "Per-benchmark LRU bound on memoized strategy maps."

let map_cap_arg =
  positive_arg "map-cap" Serve.Daemon.default_config.map_cap
    "LRU bound on custom-profile address maps."

let window_arg =
  positive_arg "epoch-window" Serve.Daemon.default_config.epoch_window
    "Live epochs per profile (older uploads are stale)."

let slow_arg =
  let doc =
    "Dump the span tree of any request slower than $(docv) milliseconds to \
     stderr (implies span recording)."
  in
  Arg.(value & opt (some int) None & info [ "slow-ms" ] ~docv:"MS" ~doc)

let config_term =
  Term.(
    const (fun benches scale deadline_ms max_request_bytes profile_cap
               memo_cap strategy_cap map_cap epoch_window slow_ms ->
        {
          Serve.Daemon.default_config with
          benches;
          scale;
          deadline_ms;
          max_request_bytes;
          profile_cap;
          memo_cap;
          strategy_cap;
          map_cap;
          epoch_window;
          slow_ms;
        })
    $ benches_arg $ scale_arg $ deadline_arg $ max_bytes_arg
    $ profile_cap_arg $ memo_cap_arg $ strategy_cap_arg $ map_cap_arg
    $ window_arg $ slow_arg)

let jobs_term =
  Cli.jobs ~default:1
    "Use $(docv) domains for read-only request batches.  Responses are \
     byte-identical to $(b,-j 1)."

let quiet_arg =
  let doc = "Suppress warning chatter on stderr." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let metrics_arg =
  let doc =
    "Enable the metrics registry and write its text dump to $(docv) on \
     exit ($(b,-) writes to stderr)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)
(* ------------------------------------------------------------------ *)

let read_lines path =
  In_channel.with_open_bin path @@ fun ic ->
  let rec go acc =
    match In_channel.input_line ic with
    | Some l -> go (l :: acc)
    | None -> List.rev acc
  in
  go []

(* A deterministic request stream exercising every response path: ok
   layouts and lints, named-profile uploads (one flow-conserving, one
   poisoning), degradation tiers, timeouts, and the malformed-input
   family.  `--sample > requests.ndjson` is how the golden vector input
   is produced. *)
let sample_lines config =
  let bench =
    match config.Serve.Daemon.benches with
    | Some (b :: _) -> b
    | _ -> List.hd Workloads.Registry.names
  in
  let daemon = Serve.Daemon.create ~config () in
  let entry = Experiments.Context.find (Serve.Daemon.context daemon) bench in
  let pipe = Experiments.Context.pipeline entry in
  let j = Obs.Json.to_string in
  let req ~id ~typ fields =
    j (Serve.Protocol.request ~id:(Obs.Json.Int id) ~typ fields)
  in
  let layout ~id fields =
    req ~id ~typ:"layout-request"
      (("bench", Obs.Json.String bench) :: fields)
  in
  [
    req ~id:1 ~typ:"stats" [];
    layout ~id:2 [ ("strategy", Obs.Json.String "impact") ];
    layout ~id:3
      [
        ("strategy", Obs.Json.String "ph");
        ( "cache",
          Obs.Json.Obj
            [ ("size", Obs.Json.Int 1024); ("block", Obs.Json.Int 32) ] );
      ];
    req ~id:4 ~typ:"lint-request" [ ("bench", Obs.Json.String bench) ];
    j
      (Serve.Protocol.upload_request_of_profile ~id:(Obs.Json.Int 5)
         ~name:"golden" ~bench ~epoch:1 pipe.Placement.Pipeline.profile);
    layout ~id:6
      [
        ("strategy", Obs.Json.String "exttsp");
        ("profile", Obs.Json.String "golden");
      ];
    (* Subscribe before the poisoning upload so the vectors record one
       push staleness notification. *)
    req ~id:7 ~typ:"subscribe" [];
    (* Structurally valid but not flow-conserving: poisons "golden",
       pinning readers to the epoch-1 snapshot. *)
    req ~id:8 ~typ:"profile-upload"
      [
        ("profile", Obs.Json.String "golden");
        ("bench", Obs.Json.String bench);
        ("epoch", Obs.Json.Int 2);
        ( "entries",
          Obs.Json.List [ Obs.Json.List [ Obs.Json.Int 0; Obs.Json.Int 7 ] ]
        );
      ];
    layout ~id:9
      [
        ("strategy", Obs.Json.String "exttsp");
        ("profile", Obs.Json.String "golden");
      ];
    layout ~id:10 [ ("deadline_ms", Obs.Json.Int 0) ];
    layout ~id:11 [ ("deadline_ms", Obs.Json.Int 1) ];
    layout ~id:12 [ ("strategy", Obs.Json.String "no-such-strategy") ];
    req ~id:13 ~typ:"layout-request" [ ("bench", Obs.Json.String "no-such-bench") ];
    {|{"schema":"impact.serve/v1","id":14,"type":|};
    {|{"schema":"impact.serve/v99","id":15,"type":"stats"}|};
    req ~id:16 ~typ:"health" [];
    req ~id:17 ~typ:"stats" [];
    req ~id:18 ~typ:"shutdown" [];
  ]

let first_divergence (got : string list) (want : string list) =
  let rec go i g w =
    match (g, w) with
    | [], [] -> None
    | g :: _, [] -> Some (i, g, "<end of expected file>")
    | [], w :: _ -> Some (i, "<end of replay output>", w)
    | g :: gs, w :: ws -> if g = w then go (i + 1) gs ws else Some (i, g, w)
  in
  go 1 got want

let run_replay config requests expect =
  let lines = read_lines requests in
  let daemon = Serve.Daemon.create ~config () in
  let responses = Serve.Daemon.run_lines daemon lines in
  let out = List.map Obs.Json.to_string responses in
  match expect with
  | None ->
      List.iter print_endline out;
      0
  | Some path -> (
      let want = read_lines path in
      match first_divergence out want with
      | None ->
          Printf.printf "replay: ok, %d responses byte-identical to %s\n"
            (List.length out) path;
          0
      | Some (line, got, expected) ->
          Printf.eprintf
            "replay: DIVERGED at response %d\n  got:      %s\n  expected: %s\n"
            line got expected;
          1)

(* The chaos and soak harnesses end alike: a summary line, the optional
   JSON report, one stderr line per violation, and exit 1 on any. *)
let finish ~harness ~summary ~json ~violations out =
  print_endline summary;
  Option.iter (fun path -> Obs.Json.to_file path json) out;
  List.iter (Printf.eprintf "%s violation: %s\n" harness) violations;
  if violations = [] then 0 else 1

(* Explicit -b overrides a harness's own benchmark pair; --scale always
   applies. *)
let harness_daemon config (base : Serve.Daemon.config) =
  {
    base with
    benches =
      (match config.Serve.Daemon.benches with
      | Some _ as b -> b
      | None -> base.benches);
    scale = config.Serve.Daemon.scale;
  }

let run_chaos config seed n out =
  let config = harness_daemon config (Serve.Chaos.default_config ()) in
  let r = Serve.Chaos.run ?seed ~n ~config () in
  finish ~harness:"chaos" ~summary:(Serve.Chaos.summary r)
    ~json:(Serve.Chaos.report_json r) ~violations:r.violations out

let run_soak config seed duration_s interval_ms ceiling_mb out =
  let base = Serve.Soak.default_config () in
  let soak_config =
    {
      base with
      Serve.Soak.seed = Option.value seed ~default:base.seed;
      duration_s;
      interval_s = float interval_ms /. 1000.0;
      ceiling_bytes = ceiling_mb * 1024 * 1024;
      daemon =
        {
          (harness_daemon config base.daemon) with
          slow_ms = config.Serve.Daemon.slow_ms;
        };
    }
  in
  let r = Serve.Soak.run ~config:soak_config () in
  finish ~harness:"soak" ~summary:(Serve.Soak.summary r)
    ~json:(Serve.Soak.report_json r) ~violations:r.violations out

let run_serve config socket =
  let daemon = Serve.Daemon.create ~config () in
  (match socket with
  | Some path -> Serve.Daemon.serve_socket daemon ~path
  | None -> Serve.Daemon.serve_channels daemon stdin stdout);
  0

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  let doc = "Listen on a Unix socket at $(docv) instead of stdio." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let sample_arg =
  let doc = "Print the deterministic sample request stream and exit." in
  Arg.(value & flag & info [ "sample" ] ~doc)

let replay_arg =
  let doc = "Replay a request file through the serve loop." in
  Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)

let expect_arg =
  let doc =
    "With $(b,--replay): compare output byte-for-byte against $(docv) and \
     fail on the first divergence."
  in
  Arg.(value & opt (some string) None & info [ "expect" ] ~docv:"FILE" ~doc)

let chaos_arg =
  let doc = "Run the seeded fault-injection campaign and exit." in
  Arg.(value & flag & info [ "chaos" ] ~doc)

let chaos_n_arg =
  let doc = "Number of chaos requests." in
  Arg.(value & opt int 200 & info [ "chaos-n" ] ~docv:"N" ~doc)

let seed_arg =
  let doc =
    "Seed of the $(b,--chaos) campaign or the $(b,--soak) workload (default: \
     each harness's own seed)."
  in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"S" ~doc)

let chaos_out_arg =
  let doc = "Write the chaos report as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "chaos-out" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Record request spans and write one Chrome trace for the session to \
     $(docv) on exit (load it at chrome://tracing or ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let soak_arg =
  let doc =
    "Run the seeded soak workload for $(docv) seconds and emit an \
     impact.soak/v1 report; exits 1 when any contract violation is observed."
  in
  Arg.(value & opt (some float) None & info [ "soak" ] ~docv:"SECONDS" ~doc)

let soak_interval_arg =
  let doc = "Memory sampling period for the soak, in milliseconds." in
  Arg.(value & opt int 1000 & info [ "soak-interval-ms" ] ~docv:"MS" ~doc)

let soak_ceiling_arg =
  let doc = "OCaml live-heap ceiling asserted by the soak, in MiB." in
  Arg.(value & opt int 512 & info [ "soak-ceiling-mb" ] ~docv:"MB" ~doc)

let soak_out_arg =
  let doc = "Write the impact.soak/v1 report as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "soak-out" ] ~docv:"FILE" ~doc)

let run config jobs quiet metrics_out trace_out socket sample replay expect
    chaos chaos_n seed chaos_out soak soak_interval soak_ceiling soak_out =
  (* The slow-request log needs the span tree, so --slow-ms implies
     recording even without a trace file. *)
  if config.Serve.Daemon.slow_ms <> None then Obs.Span.set_enabled true;
  Cli.with_telemetry ~quiet ~trace_out ~metrics_out @@ fun () ->
  (* Every mode that answers requests runs its batches on one pool. *)
  Placement.Pool.with_default jobs @@ fun () ->
  if sample then begin
    List.iter print_endline (sample_lines config);
    0
  end
  else if chaos then run_chaos config seed chaos_n chaos_out
  else
    match soak with
    | Some duration_s ->
        run_soak config seed duration_s soak_interval soak_ceiling soak_out
    | None -> (
        match replay with
        | Some requests -> run_replay config requests expect
        | None -> run_serve config socket)

let cmd =
  let doc = "Fault-tolerant layout service (impact.serve/v1 over stdio)" in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ config_term $ jobs_term $ quiet_arg $ metrics_arg
      $ trace_arg $ socket_arg $ sample_arg $ replay_arg $ expect_arg
      $ chaos_arg $ chaos_n_arg $ seed_arg $ chaos_out_arg $ soak_arg
      $ soak_interval_arg $ soak_ceiling_arg $ soak_out_arg)

let () = Cli.exit_with (fun () -> Cmd.eval' ~catch:false cmd)
