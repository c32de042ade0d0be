(* Telemetry library tests: span nesting and exception safety, Chrome
   trace-event export parsed back with the in-tree JSON parser, metric
   registry math and uniqueness, the log sink with --quiet semantics,
   the immediate surfacing of strategy-fallback warnings, and an on/off
   differential proving instrumentation never changes results. *)

(* Every test leaves the global telemetry state as it found it
   (disabled, default sink, not quiet): these are process-wide toggles
   shared with every other suite in this binary. *)
let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let with_clean_telemetry f =
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.set_enabled false;
      Obs.Span.reset ();
      Obs.Metrics.set_enabled false;
      Obs.Log.reset_sink ();
      Obs.Log.set_quiet false)
    f

(* ---------------- JSON emitter / parser ---------------- *)

let json_roundtrip () =
  let v =
    Obs.Json.Obj
      [
        ("s", Obs.Json.String "a\"b\\c\nd\ttab");
        ("i", Obs.Json.Int (-42));
        ("f", Obs.Json.Float 0.125);
        ("t", Obs.Json.Bool true);
        ("n", Obs.Json.Null);
        ( "l",
          Obs.Json.List
            [ Obs.Json.Int 1; Obs.Json.String "x"; Obs.Json.Obj [] ] );
      ]
  in
  let reparsed = Obs.Json.parse_exn (Obs.Json.to_string v) in
  Alcotest.(check bool) "roundtrip" true (v = reparsed);
  (* Non-finite floats must serialize as null, not break the file. *)
  let nan_doc = Obs.Json.to_string (Obs.Json.Float Float.nan) in
  Alcotest.(check string) "nan is null" "null" nan_doc;
  let inf_doc = Obs.Json.to_string (Obs.Json.Float Float.infinity) in
  Alcotest.(check string) "inf is null" "null" inf_doc;
  match Obs.Json.parse "{broken" with
  | Ok _ -> Alcotest.fail "malformed JSON parsed"
  | Error _ -> ()

(* Adversarial input must come back as a parse error — never a stack
   overflow (depth bomb), never unbounded work (size bomb), never a
   crash on truncation. *)
let json_adversarial () =
  let expect_error name input =
    match Obs.Json.parse input with
    | Ok _ -> Alcotest.fail (name ^ ": malformed input parsed")
    | Error _ -> ()
  in
  (* Truncated documents, every shape. *)
  List.iter
    (fun s -> expect_error "truncated" s)
    [ "{\"a\":"; "[1,2,"; "\"unterminated"; "{\"a\":\"b\\"; "tru"; "-" ];
  (* Depth bomb: 100k nested arrays would overflow the parser's stack
     without the depth limit. *)
  let bomb = String.make 100_000 '[' in
  expect_error "depth bomb" bomb;
  let bomb_obj =
    String.concat "" (List.init 5_000 (fun _ -> "{\"k\":")) ^ "1"
  in
  expect_error "object depth bomb" bomb_obj;
  (* Nesting at the limit still parses; one past it does not. *)
  let nested d = String.make d '[' ^ "1" ^ String.make d ']' in
  (match Obs.Json.parse ~max_depth:16 (nested 16) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("depth at limit rejected: " ^ e));
  (match Obs.Json.parse ~max_depth:16 (nested 17) with
  | Ok _ -> Alcotest.fail "depth past limit parsed"
  | Error _ -> ());
  (* Size bomb: with a byte bound, an oversized payload is rejected
     before any parsing work. *)
  let big = "\"" ^ String.make 4096 'x' ^ "\"" in
  (match Obs.Json.parse ~max_bytes:1024 big with
  | Ok _ -> Alcotest.fail "oversized payload parsed"
  | Error e ->
    Alcotest.(check bool) "size error names the limit" true
      (contains ~needle:"too large" e));
  match Obs.Json.parse ~max_bytes:8192 big with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("payload under the bound rejected: " ^ e)

(* ---------------- spans ---------------- *)

let span_nesting () =
  with_clean_telemetry @@ fun () ->
  Obs.Span.set_enabled true;
  Obs.Span.reset ();
  let r =
    Obs.Span.with_ ~stage:"outer" (fun () ->
        1 + Obs.Span.with_ ~stage:"inner" ~attrs:[ ("k", "v") ] (fun () -> 41))
  in
  Alcotest.(check int) "thunk result" 42 r;
  match Obs.Span.events () with
  | [ inner; outer ] ->
    (* Completion order: the inner span finishes first. *)
    Alcotest.(check string) "inner first" "inner" inner.Obs.Span.name;
    Alcotest.(check string) "outer second" "outer" outer.Obs.Span.name;
    Alcotest.(check int) "inner depth" 1 inner.Obs.Span.depth;
    Alcotest.(check int) "outer depth" 0 outer.Obs.Span.depth;
    Alcotest.(check bool) "seq ordering" true
      (inner.Obs.Span.seq < outer.Obs.Span.seq);
    Alcotest.(check (list (pair string string))) "attrs" [ ("k", "v") ]
      inner.Obs.Span.attrs;
    Alcotest.(check bool) "inner starts inside outer" true
      (inner.Obs.Span.start_us >= outer.Obs.Span.start_us);
    Alcotest.(check bool) "inner no longer than outer" true
      (inner.Obs.Span.dur_us <= outer.Obs.Span.dur_us)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let span_disabled_and_exceptions () =
  with_clean_telemetry @@ fun () ->
  (* Disabled: pure pass-through, nothing recorded. *)
  Obs.Span.set_enabled false;
  Obs.Span.reset ();
  Alcotest.(check int) "pass-through" 7
    (Obs.Span.with_ ~stage:"ghost" (fun () -> 7));
  Alcotest.(check int) "no events while disabled" 0
    (List.length (Obs.Span.events ()));
  (* Enabled: a raising thunk still completes its span. *)
  Obs.Span.set_enabled true;
  (try
     Obs.Span.with_ ~stage:"boom" (fun () -> failwith "expected") |> ignore
   with Failure _ -> ());
  match Obs.Span.events () with
  | [ e ] -> Alcotest.(check string) "span survives raise" "boom" e.Obs.Span.name
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let chrome_export_parses_back () =
  with_clean_telemetry @@ fun () ->
  Obs.Span.set_enabled true;
  Obs.Span.reset ();
  Obs.Span.with_ ~stage:"alpha" (fun () ->
      Obs.Span.with_ ~stage:"beta" ~attrs:[ ("x", "1") ] (fun () -> ()));
  let path = Filename.temp_file "impact_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Span.write_chrome path;
  let doc =
    match Obs.Json.of_file path with
    | Ok v -> v
    | Error msg -> Alcotest.failf "trace does not parse: %s" msg
  in
  let events =
    match Obs.Json.member "traceEvents" doc with
    | Some (Obs.Json.List evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing"
  in
  Alcotest.(check int) "two events" 2 (List.length events);
  List.iter
    (fun ev ->
      List.iter
        (fun key ->
          if Obs.Json.member key ev = None then
            Alcotest.failf "event lacks %S" key)
        [ "name"; "cat"; "ph"; "ts"; "dur"; "pid"; "tid"; "args" ];
      Alcotest.(check bool) "complete event" true
        (Obs.Json.member "ph" ev = Some (Obs.Json.String "X")))
    events;
  (* Chrome events are sorted by start time: "alpha" opens first. *)
  match Obs.Json.member "name" (List.hd events) with
  | Some (Obs.Json.String n) -> Alcotest.(check string) "sorted by ts" "alpha" n
  | _ -> Alcotest.fail "first event has no name"

(* ---------------- span collect / add_attr / cap ---------------- *)

let span_collect_and_attrs () =
  with_clean_telemetry @@ fun () ->
  Obs.Span.set_enabled true;
  Obs.Span.reset ();
  (* A span outside the collect window must not leak into it. *)
  Obs.Span.with_ ~stage:"before" (fun () -> ());
  let result, spans =
    Obs.Span.collect (fun () ->
        Obs.Span.with_ ~stage:"outer" ~attrs:[ ("k", "v") ] (fun () ->
            Obs.Span.add_attr "tier" "full";
            Obs.Span.with_ ~stage:"inner" (fun () -> ());
            17))
  in
  Alcotest.(check int) "collect passes the result through" 17 result;
  Alcotest.(check (list string)) "collected spans, oldest first"
    [ "inner"; "outer" ]
    (List.map (fun (e : Obs.Span.event) -> e.name) spans);
  let outer = List.nth spans 1 in
  Alcotest.(check (list (pair string string)))
    "add_attr lands after the with_ attrs"
    [ ("k", "v"); ("tier", "full") ]
    outer.attrs;
  (* add_attr with no open span is a no-op, not a crash. *)
  Obs.Span.add_attr "orphan" "x";
  (* Disabled collect still runs the thunk. *)
  Obs.Span.set_enabled false;
  let r, evs = Obs.Span.collect (fun () -> 3) in
  Alcotest.(check int) "disabled collect result" 3 r;
  Alcotest.(check int) "disabled collect events" 0 (List.length evs)

let span_cap () =
  with_clean_telemetry @@ fun () ->
  Fun.protect ~finally:(fun () -> Obs.Span.set_cap None) @@ fun () ->
  Obs.Span.set_enabled true;
  Obs.Span.reset ();
  Obs.Span.set_cap (Some 10);
  for i = 1 to 100 do
    Obs.Span.with_ ~stage:(Printf.sprintf "s%03d" i) (fun () -> ())
  done;
  let evs = Obs.Span.events () in
  let n = List.length evs in
  Alcotest.(check bool)
    (Printf.sprintf "cap bounds retention (%d spans kept)" n)
    true
    (n >= 10 && n <= 20);
  (* The survivors are the newest spans. *)
  match List.rev evs with
  | last :: _ -> Alcotest.(check string) "newest span kept" "s100" last.name
  | [] -> Alcotest.fail "no spans retained"

(* ---------------- metrics ---------------- *)

let metrics_math () =
  with_clean_telemetry @@ fun () ->
  Obs.Metrics.set_enabled true;
  let c = Obs.Metrics.counter "test.obs.counter" in
  let g = Obs.Metrics.gauge "test.obs.gauge" in
  let h = Obs.Metrics.histogram "test.obs.hist" in
  Obs.Metrics.reset ();
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Obs.Metrics.value c);
  Obs.Metrics.set g 2.5;
  Obs.Metrics.set g 1.25;
  Alcotest.(check (float 1e-9)) "gauge keeps last" 1.25
    (Obs.Metrics.gauge_value g);
  List.iter (Obs.Metrics.observe h) [ 2.0; 4.0; 6.0 ];
  Alcotest.(check int) "hist count" 3 (Obs.Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "hist sum" 12.0 (Obs.Metrics.hist_sum h);
  Alcotest.(check (float 1e-9)) "hist min" 2.0 (Obs.Metrics.hist_min h);
  Alcotest.(check (float 1e-9)) "hist max" 6.0 (Obs.Metrics.hist_max h);
  Alcotest.(check (float 1e-9)) "hist mean" 4.0 (Obs.Metrics.hist_mean h);
  (* reset zeroes values but keeps registrations visible in the dump. *)
  Obs.Metrics.reset ();
  Alcotest.(check int) "counter reset" 0 (Obs.Metrics.value c);
  Alcotest.(check int) "hist reset" 0 (Obs.Metrics.hist_count h);
  Alcotest.(check bool) "dump still lists the counter" true
    (contains ~needle:"test.obs.counter" (Obs.Metrics.dump ()));
  (* Disabled registry: mutations are no-ops. *)
  Obs.Metrics.set_enabled false;
  Obs.Metrics.incr ~by:100 c;
  Obs.Metrics.observe h 1.0;
  Alcotest.(check int) "disabled incr ignored" 0 (Obs.Metrics.value c);
  Alcotest.(check int) "disabled observe ignored" 0 (Obs.Metrics.hist_count h)

(* Quantile estimates land on log-scale bucket upper bounds, so each
   estimate overshoots its sample by at most one bucket width (2^0.25 ≈
   19%) and is clamped into [min, max]. *)
let metrics_quantiles () =
  with_clean_telemetry @@ fun () ->
  Obs.Metrics.set_enabled true;
  let h = Obs.Metrics.histogram "test.obs.quant" in
  Obs.Metrics.reset ();
  for i = 1 to 100 do
    Obs.Metrics.observe h (float i /. 1000.0)
  done;
  let check_near name want got =
    if got < want || got > want *. 1.19 then
      Alcotest.failf "%s: %g not within one bucket above %g" name got want
  in
  check_near "p50" 0.050 (Obs.Metrics.hist_quantile h 0.50);
  check_near "p90" 0.090 (Obs.Metrics.hist_quantile h 0.90);
  check_near "p99" 0.099 (Obs.Metrics.hist_quantile h 0.99);
  Alcotest.(check (float 1e-9)) "p100 is max" 0.1
    (Obs.Metrics.hist_quantile h 1.0);
  (* Quantiles are monotone in p. *)
  let prev = ref 0.0 in
  List.iter
    (fun p ->
      let q = Obs.Metrics.hist_quantile h p in
      if q < !prev then Alcotest.failf "quantiles not monotone at p=%g" p;
      prev := q)
    [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ];
  (* A single sample answers every quantile with itself. *)
  let h1 = Obs.Metrics.histogram "test.obs.quant1" in
  Obs.Metrics.observe h1 42.0;
  Alcotest.(check (float 1e-9)) "singleton p50" 42.0
    (Obs.Metrics.hist_quantile h1 0.5)

(* The empty-histogram contract: every statistic is 0., never inf or
   NaN, in the accessors and the text dump. *)
let metrics_empty_histogram () =
  with_clean_telemetry @@ fun () ->
  Obs.Metrics.set_enabled true;
  let h = Obs.Metrics.histogram "test.obs.empty" in
  Obs.Metrics.reset ();
  List.iter
    (fun (name, v) ->
      Alcotest.(check (float 1e-9)) name 0.0 v;
      Alcotest.(check bool) (name ^ " finite") true (Float.is_finite v))
    [
      ("empty min", Obs.Metrics.hist_min h);
      ("empty max", Obs.Metrics.hist_max h);
      ("empty mean", Obs.Metrics.hist_mean h);
      ("empty sum", Obs.Metrics.hist_sum h);
      ("empty p50", Obs.Metrics.hist_quantile h 0.5);
      ("empty p99", Obs.Metrics.hist_quantile h 0.99);
    ];
  let dump = Obs.Metrics.dump () in
  Alcotest.(check bool) "dump lists the empty histogram" true
    (contains ~needle:"test.obs.empty" dump);
  Alcotest.(check bool) "dump has no inf/nan" false
    (contains ~needle:"inf" dump || contains ~needle:"nan" dump)

(* The dump prints the same quantiles the accessors answer. *)
let metrics_dump_quantiles () =
  with_clean_telemetry @@ fun () ->
  Obs.Metrics.set_enabled true;
  let h = Obs.Metrics.histogram "test.obs.dumpq" in
  Obs.Metrics.reset ();
  List.iter (Obs.Metrics.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  let expect =
    Printf.sprintf "p50=%.6f" (Obs.Metrics.hist_quantile h 0.5)
  in
  Alcotest.(check bool) "dump carries p50" true
    (contains ~needle:expect (Obs.Metrics.dump ()))

let metrics_uniqueness () =
  with_clean_telemetry @@ fun () ->
  Obs.Metrics.set_enabled true;
  let a = Obs.Metrics.counter "test.obs.unique" in
  let b = Obs.Metrics.counter "test.obs.unique" in
  Obs.Metrics.reset ();
  Obs.Metrics.incr a;
  Obs.Metrics.incr b;
  (* Same (name, kind) yields the same underlying instance. *)
  Alcotest.(check int) "shared instance" 2 (Obs.Metrics.value a);
  (* A cross-kind collision is a programming error. *)
  match Obs.Metrics.gauge "test.obs.unique" with
  | _ -> Alcotest.fail "cross-kind registration succeeded"
  | exception Invalid_argument _ -> ()

(* ---------------- log sink ---------------- *)

let log_sink_and_quiet () =
  with_clean_telemetry @@ fun () ->
  let got = ref [] in
  Obs.Log.set_sink (fun level msg -> got := (level, msg) :: !got);
  Obs.Log.set_quiet false;
  Obs.Log.warn "weird %s" "thing";
  Obs.Log.error "broke";
  Obs.Log.warn_raw "[warning strategy ph] preformatted";
  (match List.rev !got with
  | [
   (Obs.Log.Warn, "[warning] weird thing");
   (Obs.Log.Error, "[error] broke");
   (Obs.Log.Warn, "[warning strategy ph] preformatted");
  ] ->
    ()
  | msgs -> Alcotest.failf "unexpected log stream (%d messages)" (List.length msgs));
  (* Quiet drops Warn; Error always reaches the sink. *)
  got := [];
  Obs.Log.set_quiet true;
  Obs.Log.warn "dropped";
  Obs.Log.warn_raw "dropped";
  Obs.Log.error "kept";
  Alcotest.(check int) "only the error passed" 1 (List.length !got);
  match !got with
  | [ (Obs.Log.Error, "[error] kept") ] -> ()
  | _ -> Alcotest.fail "quiet mangled the error path"

(* ---------------- immediate fallback warnings (regression) ---------- *)

let raising_strategy =
  {
    Placement.Strategy.natural with
    Placement.Strategy.id = "explosive-obs";
    title = "always raises (deliberately broken)";
    layout = (fun _ _ -> failwith "boom");
  }

(* The bug this pins down: degradation warnings used to be appended to
   the *next* rendered table, so `impact all` surfaced them minutes
   late (or never, on a crash).  They must hit the log sink during
   [strategy_map] itself, before any table is rendered. *)
let fallback_warning_is_immediate () =
  with_clean_telemetry @@ fun () ->
  let got = ref [] in
  Obs.Log.set_sink (fun level msg -> got := (level, msg) :: !got);
  Obs.Metrics.set_enabled true;
  let fallbacks_before =
    Obs.Metrics.value Experiments.Context.strategy_fallbacks
  in
  let ctx = Experiments.Context.create ~names:[ "cmp" ] () in
  let e = Experiments.Context.find ctx "cmp" in
  let map = Experiments.Context.strategy_map e raising_strategy in
  Alcotest.(check bool) "natural map substituted" true
    (map == Experiments.Context.natural_map e);
  (match !got with
  | [ (Obs.Log.Warn, msg) ] ->
    Alcotest.(check bool) "names the strategy" true
      (contains ~needle:"explosive-obs" msg)
  | msgs ->
    Alcotest.failf "expected exactly 1 immediate warning, got %d"
      (List.length msgs));
  Alcotest.(check int) "fallback counter bumped" (fallbacks_before + 1)
    (Obs.Metrics.value Experiments.Context.strategy_fallbacks);
  (* Memoized retry: no duplicate warning. *)
  ignore (Experiments.Context.strategy_map e raising_strategy);
  Alcotest.(check int) "no duplicate on memoized call" 1 (List.length !got)

(* ---------------- on/off differential ---------------- *)

(* Telemetry must be observation only: the full strategy sweep and a
   simulation produce bit-identical results with instrumentation off
   and on. *)
let on_off_differential () =
  with_clean_telemetry @@ fun () ->
  let config = Icache.Config.make ~size:512 ~block:16 () in
  let run () =
    let ctx = Experiments.Context.create ~names:[ "cmp" ] () in
    let e = Experiments.Context.find ctx "cmp" in
    let rows = Experiments.Strategy_exp.compute ctx in
    let r =
      Experiments.Context.simulate e config
        (Experiments.Context.optimized_map e)
        (Experiments.Context.trace e)
    in
    (rows, r)
  in
  Obs.Span.set_enabled false;
  Obs.Metrics.set_enabled false;
  let rows_off, r_off = run () in
  Obs.Span.set_enabled true;
  Obs.Span.reset ();
  Obs.Metrics.set_enabled true;
  let rows_on, r_on = run () in
  Alcotest.(check bool) "spans were actually recorded" true
    (Obs.Span.events () <> []);
  Alcotest.(check bool) "strategy rows identical" true (rows_off = rows_on);
  Alcotest.(check bool) "simulation results identical" true (r_off = r_on)

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick json_roundtrip;
    Alcotest.test_case "json adversarial input" `Quick json_adversarial;
    Alcotest.test_case "span nesting and ordering" `Quick span_nesting;
    Alcotest.test_case "span disabled / exception safety" `Quick
      span_disabled_and_exceptions;
    Alcotest.test_case "chrome export parses back" `Quick
      chrome_export_parses_back;
    Alcotest.test_case "metrics math and reset" `Quick metrics_math;
    Alcotest.test_case "histogram quantiles" `Quick metrics_quantiles;
    Alcotest.test_case "empty histogram is all zeros" `Quick
      metrics_empty_histogram;
    Alcotest.test_case "dump carries quantiles" `Quick metrics_dump_quantiles;
    Alcotest.test_case "span collect and add_attr" `Quick
      span_collect_and_attrs;
    Alcotest.test_case "span retention cap" `Quick span_cap;
    Alcotest.test_case "metric registry uniqueness" `Quick metrics_uniqueness;
    Alcotest.test_case "log sink and quiet" `Quick log_sink_and_quiet;
    Alcotest.test_case "fallback warning is immediate" `Quick
      fallback_warning_is_immediate;
    Alcotest.test_case "telemetry on/off differential" `Quick
      on_off_differential;
  ]
