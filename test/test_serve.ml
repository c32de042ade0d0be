(* Layout-service tests: protocol parsing and the error taxonomy,
   per-request isolation, weighted profile-merge properties, the
   degradation tiers (natural fallback, cheapest strategy, last-good
   epoch), deadline/timeout semantics, the LRU bounds on the profile
   store and context memo tables, golden-vector replay, the Unix-socket
   front end, a seeded chaos campaign through the serve loop, and the
   contract checker itself on synthetic streams. *)

let bench = "cmp"

let small_config =
  { Serve.Daemon.default_config with benches = Some [ bench ] }

(* One resident daemon shared by the read-only tests; tests that mutate
   profile or counter state build their own. *)
let shared = lazy (Serve.Daemon.create ~config:small_config ())

let line_of = Obs.Json.to_string

let request ~id ~typ fields =
  line_of (Serve.Protocol.request ~id:(Obs.Json.Int id) ~typ fields)

let layout_line ?(bench = bench) ~id fields =
  request ~id ~typ:"layout-request" (("bench", Obs.Json.String bench) :: fields)

let status_of resp =
  match Obs.Json.member "status" resp with
  | Some (Obs.Json.String s) -> s
  | _ -> "<none>"

let str_field key resp =
  match Obs.Json.member key resp with
  | Some (Obs.Json.String s) -> s
  | _ -> "<none>"

let contains_sub haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let error_code resp =
  match Obs.Json.member "error" resp with
  | Some err -> (
      match Obs.Json.member "code" err with
      | Some (Obs.Json.Int c) -> c
      | _ -> -1)
  | None -> -1

(* One request line through the production serve loop: its response and
   whether the daemon has stopped. *)
let serve_one d line =
  match Serve.Daemon.run_lines d [ line ] with
  | [ resp ] -> (resp, Serve.Daemon.stopped d)
  | other -> Alcotest.failf "expected 1 response, got %d" (List.length other)

let pipeline_profile () =
  let d = Lazy.force shared in
  let entry = Experiments.Context.find (Serve.Daemon.context d) bench in
  (Experiments.Context.pipeline entry).Placement.Pipeline.profile

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let protocol_roundtrip () =
  (match
     Serve.Protocol.parse_request
       (layout_line ~id:7
          [
            ("strategy", Obs.Json.String "ph");
            ( "cache",
              Obs.Json.Obj
                [ ("size", Obs.Json.Int 1024); ("block", Obs.Json.Int 32) ] );
            ("deadline_ms", Obs.Json.Int 50);
          ])
   with
  | Ok { id = Obs.Json.Int 7; req = Serve.Protocol.Layout_request r } ->
      Alcotest.(check string) "bench" bench r.bench;
      Alcotest.(check string) "strategy" "ph" r.strategy;
      Alcotest.(check int) "cache size" 1024 r.config.Icache.Config.size;
      Alcotest.(check (option int)) "deadline" (Some 50) r.deadline_ms;
      Alcotest.(check (option string)) "no profile" None r.profile
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error (_, e) -> Alcotest.failf "parse failed: %s" e.message);
  (* Defaults: strategy impact, the paper's 2K/64B cache. *)
  (match Serve.Protocol.parse_request (layout_line ~id:1 []) with
  | Ok { req = Serve.Protocol.Layout_request r; _ } ->
      Alcotest.(check string) "default strategy" "impact" r.strategy;
      Alcotest.(check int) "default size" 2048 r.config.Icache.Config.size
  | _ -> Alcotest.fail "default parse failed");
  let expect_usage what line =
    match Serve.Protocol.parse_request line with
    | Error (_, e) -> Alcotest.(check int) (what ^ " code") 2 e.code
    | Ok _ -> Alcotest.failf "%s: expected a parse error" what
  in
  expect_usage "unknown type" (request ~id:1 ~typ:"frobnicate" []);
  expect_usage "unknown schema"
    {|{"schema":"impact.serve/v99","id":1,"type":"stats"}|};
  expect_usage "missing schema" {|{"id":1,"type":"stats"}|};
  expect_usage "composite id"
    {|{"schema":"impact.serve/v1","id":[1,2],"type":"stats"}|};
  expect_usage "negative deadline"
    (layout_line ~id:1 [ ("deadline_ms", Obs.Json.Int (-1)) ]);
  expect_usage "bad cache geometry"
    (layout_line ~id:1
       [
         ( "cache",
           Obs.Json.Obj [ ("size", Obs.Json.Int 7); ("block", Obs.Json.Int 3) ]
         );
       ]);
  expect_usage "truncated" {|{"schema":"impact.serve/v1","ty|}

(* The hot-arc threshold is a probability: a lint request carrying a
   value outside [0, 1] is a usage error, the bounds themselves are
   accepted. *)
let lint_min_prob_range () =
  let lint_line p =
    request ~id:1 ~typ:"lint-request"
      [ ("bench", Obs.Json.String bench); ("min_prob", Obs.Json.Float p) ]
  in
  List.iter
    (fun p ->
      match Serve.Protocol.parse_request (lint_line p) with
      | Error (_, e) ->
        Alcotest.(check int) (Printf.sprintf "min_prob %g code" p) 2 e.code;
        Alcotest.(check string)
          (Printf.sprintf "min_prob %g message" p)
          "min_prob must be in [0, 1]" e.message
      | Ok _ -> Alcotest.failf "min_prob %g accepted" p)
    [ 7.0; -0.5; 1.5 ];
  List.iter
    (fun p ->
      match Serve.Protocol.parse_request (lint_line p) with
      | Ok { req = Serve.Protocol.Lint_request r; _ } ->
        Alcotest.(check (option (float 0.)))
          (Printf.sprintf "min_prob %g kept" p)
          (Some p) r.min_prob
      | _ -> Alcotest.failf "min_prob %g rejected" p)
    [ 0.0; 0.3; 1.0 ];
  (* Through the serve loop the rejection is one usage-error response. *)
  let resp, stopped = serve_one (Lazy.force shared) (lint_line 7.0) in
  Alcotest.(check string) "error status" "error" (status_of resp);
  Alcotest.(check int) "usage code" 2 (error_code resp);
  Alcotest.(check bool) "daemon keeps serving" false stopped

let error_taxonomy () =
  let open Serve.Protocol in
  Alcotest.(check int) "unknown bench is usage" 2
    (error_of_exn (Workloads.Registry.Unknown_benchmark "x")).code;
  Alcotest.(check int) "unknown strategy is usage" 2
    (error_of_exn (Placement.Strategy.Unknown_strategy "x")).code;
  Alcotest.(check string) "unexpected exn is internal" "internal"
    (error_of_exn Not_found).stage;
  Alcotest.(check int) "internal code" 1 (error_of_exn Not_found).code;
  let d = Ir.Diag.make ~stage:Ir.Diag.Strategy "boom" in
  Alcotest.(check int) "diag keeps its taxonomy code"
    (Ir.Diag.exit_code d) (error_of_exn (Ir.Diag.Fail d)).code

(* ------------------------------------------------------------------ *)
(* Isolation: every abuse is one error response, never a crash         *)
(* ------------------------------------------------------------------ *)

let request_isolation () =
  let d = Lazy.force shared in
  let abuses =
    [
      "not json at all";
      String.concat "" (List.init 2000 (fun _ -> "["));
      layout_line ~bench:"no-such" ~id:1 [];
      layout_line ~id:2
        [
          ( "cache",
            Obs.Json.Obj
              [ ("size", Obs.Json.Int 0); ("block", Obs.Json.Int 64) ] );
        ];
      request ~id:3 ~typ:"profile-upload"
        [
          ("profile", Obs.Json.String "p");
          ("bench", Obs.Json.String bench);
          ( "blocks",
            Obs.Json.List
              [
                Obs.Json.List
                  [ Obs.Json.Int 999; Obs.Json.Int 0; Obs.Json.Int 1 ];
              ] );
        ];
    ]
  in
  List.iter
    (fun abuse ->
      let resp, stop = serve_one d abuse in
      Alcotest.(check bool) "abuse does not stop the daemon" false stop;
      Alcotest.(check string) "abuse answered with error" "error"
        (status_of resp);
      (* The daemon still serves ordinary traffic afterwards. *)
      let ok, _ = serve_one d (request ~id:9 ~typ:"stats" []) in
      Alcotest.(check string) "still serving" "ok" (status_of ok))
    abuses

let oversize_bounded () =
  let config = { small_config with max_request_bytes = 4096 } in
  let d = Serve.Daemon.create ~config () in
  let resp, stop = serve_one d (String.make 5000 'x') in
  Alcotest.(check bool) "not fatal" false stop;
  Alcotest.(check string) "oversize is an error" "error" (status_of resp);
  Alcotest.(check int) "usage code" 2 (error_code resp)

(* An over-long line read from a channel is answered too: with a usage
   error carrying its length, and the daemon goes on to the next
   request. *)
let oversize_over_pipe () =
  let config = { small_config with max_request_bytes = 60 } in
  let d = Serve.Daemon.create ~config () in
  let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
  let server =
    Domain.spawn (fun () ->
        Serve.Daemon.serve_channels d
          (Unix.in_channel_of_descr req_r)
          (Unix.out_channel_of_descr resp_w))
  in
  let long =
    request ~id:1 ~typ:"stats" [ ("pad", Obs.Json.String (String.make 40 'x')) ]
  in
  let to_daemon = Unix.out_channel_of_descr req_w in
  output_string to_daemon (long ^ "\n" ^ request ~id:2 ~typ:"stats" [] ^ "\n");
  close_out to_daemon;
  Domain.join server;
  Unix.close resp_w;
  let lines = In_channel.input_lines (Unix.in_channel_of_descr resp_r) in
  Unix.close resp_r;
  Unix.close req_r;
  match List.map Obs.Json.parse_exn lines with
  | [ over; next ] ->
      Alcotest.(check int) "over-long line is a usage error" 2
        (error_code over);
      let message =
        match Obs.Json.member "error" over with
        | Some err -> str_field "message" err
        | None -> "<none>"
      in
      Alcotest.(check string) "its real length is reported"
        (Printf.sprintf "request too large: %d bytes (limit 60)"
           (String.length long))
        message;
      Alcotest.(check string) "next request served" "ok" (status_of next)
  | other -> Alcotest.failf "expected 2 responses, got %d" (List.length other)

(* A layout request cannot name a cache larger than
   [Protocol.max_cache_bytes]: the simulated state grows with it. *)
let cache_size_bounded () =
  let parse size =
    Serve.Protocol.parse_request
      (layout_line ~id:1
         [
           ( "cache",
             Obs.Json.Obj
               [ ("size", Obs.Json.Int size); ("block", Obs.Json.Int 4) ] );
         ])
  in
  (match parse Serve.Protocol.max_cache_bytes with
  | Ok _ -> ()
  | Error (_, e) -> Alcotest.failf "1 MiB cache rejected: %s" e.message);
  (match parse (1 lsl 29) with
  | Ok _ -> Alcotest.fail "a 512 MiB cache was accepted"
  | Error (_, e) ->
      Alcotest.(check int) "usage error" 2 e.Serve.Protocol.code);
  let resp, _ =
    serve_one (Lazy.force shared)
      (layout_line ~id:2
         [
           ( "cache",
             Obs.Json.Obj
               [ ("size", Obs.Json.Int (2 * Serve.Protocol.max_cache_bytes)) ]
           );
         ])
  in
  Alcotest.(check string) "served as an error" "error" (status_of resp);
  Alcotest.(check int) "usage code" 2 (error_code resp)

(* ------------------------------------------------------------------ *)
(* Profile merging                                                     *)
(* ------------------------------------------------------------------ *)

let upload_of ~name ?epoch ?weight prof =
  match
    Serve.Protocol.parse_request
      (line_of
         (Serve.Protocol.upload_request_of_profile ~name ~bench ?epoch ?weight
            prof))
  with
  | Ok { req = Serve.Protocol.Profile_upload u; _ } -> u
  | _ -> Alcotest.fail "upload round-trip failed"

let prog_of_shared () =
  let d = Lazy.force shared in
  let entry = Experiments.Context.find (Serve.Daemon.context d) bench in
  (Experiments.Context.pipeline entry).Placement.Pipeline.program

(* Canonical serialization of the materialized profile: equality on all
   four count tables at once. *)
let snapshot store name =
  match Serve.Store.view store name with
  | Serve.Store.Fresh { profile; _ } | Serve.Store.Last_good { profile; _ } ->
      line_of
        (Serve.Protocol.upload_request_of_profile ~name:"snap" ~bench profile)
  | Serve.Store.Empty -> "<empty>"
  | Serve.Store.Unknown -> "<unknown>"

let must_upload store ~prog u =
  try Serve.Store.upload store ~prog u
  with Failure msg -> Alcotest.failf "upload rejected: %s" msg

let merge_self_doubles () =
  let prof = pipeline_profile () in
  let prog = prog_of_shared () in
  let store = Serve.Store.create ~cap:8 () in
  let u1 = upload_of ~name:"twice" prof in
  ignore (must_upload store ~prog u1);
  ignore (must_upload store ~prog u1);
  let u2 = upload_of ~name:"double" ~weight:2.0 prof in
  ignore (must_upload store ~prog u2);
  Alcotest.(check string) "merging a profile with itself doubles weights"
    (snapshot store "double") (snapshot store "twice");
  (* Doubling an integer-conserving profile conserves flow. *)
  (match Serve.Store.view store "twice" with
  | Serve.Store.Fresh { profile; _ } ->
      Alcotest.(check int) "flow conservation after self-merge" 0
        (List.length (Placement.Validate.flow profile))
  | _ -> Alcotest.fail "expected a fresh view")

let merge_commutative =
  QCheck.Test.make ~name:"weighted merge is order-independent" ~count:12
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (w1, w2) ->
      let prof = pipeline_profile () in
      let prog = prog_of_shared () in
      let ua = upload_of ~name:"m" ~weight:(float_of_int w1) prof in
      let ub = upload_of ~name:"m" ~weight:(float_of_int w2) prof in
      let merged order =
        let store = Serve.Store.create ~cap:8 () in
        List.iter (fun u -> ignore (must_upload store ~prog u)) order;
        snapshot store "m"
      in
      let ab = merged [ ua; ub ] and ba = merged [ ub; ua ] in
      if ab <> ba then QCheck.Test.fail_report "merge order changed the result";
      (* Integer-weighted merges of a flow-conserving profile conserve
         flow by linearity. *)
      String.length ab > 0 && ab <> "<empty>")

let poisoned_pins_last_good () =
  let store = Serve.Store.create ~cap:8 () in
  let prog = prog_of_shared () in
  let prof = pipeline_profile () in
  ignore (must_upload store ~prog (upload_of ~name:"p" ~epoch:1 prof));
  let good = snapshot store "p" in
  (* Structurally valid, but entry counts without matching block weights
     break flow conservation: the upload is accepted and poisons. *)
  let o =
    must_upload store ~prog
      {
        Serve.Protocol.profile = "p";
        bench;
        epoch = Some 2;
        weight = 1.0;
        blocks = [];
        arcs = [];
        entries = [ (0, 7.0) ];
        calls = [];
      }
  in
  Alcotest.(check bool) "poisoning upload accepted" true o.accepted;
  Alcotest.(check bool) "marked poisoned" true o.poisoned;
  Alcotest.(check bool) "violations reported" true (o.flow_violations > 0);
  (match Serve.Store.view store "p" with
  | Serve.Store.Last_good { epoch; _ } ->
      Alcotest.(check int) "pinned to the last good epoch" 1 epoch
  | _ -> Alcotest.fail "expected the last-good view");
  Alcotest.(check string) "last-good snapshot unchanged" good
    (snapshot store "p")

let stale_epoch_rejected () =
  let store = Serve.Store.create ~cap:8 ~window:4 () in
  let prog = prog_of_shared () in
  let prof = pipeline_profile () in
  ignore (must_upload store ~prog (upload_of ~name:"s" ~epoch:5 prof));
  let o = must_upload store ~prog (upload_of ~name:"s" ~epoch:0 prof) in
  Alcotest.(check bool) "stale upload not merged" false o.accepted;
  Alcotest.(check (option string)) "typed reason" (Some "stale-epoch") o.reason;
  Alcotest.(check int) "window floor" 2 o.min_live

let store_cap_evicts () =
  let store = Serve.Store.create ~cap:2 () in
  let prog = prog_of_shared () in
  let prof = pipeline_profile () in
  List.iter
    (fun name -> ignore (must_upload store ~prog (upload_of ~name prof)))
    [ "a"; "b"; "c"; "d" ];
  Alcotest.(check int) "store stays at its cap" 2 (Serve.Store.size store);
  (* The most recent uploads survive. *)
  Alcotest.(check bool) "latest profile resident" true
    (Serve.Store.view store "d" <> Serve.Store.Unknown);
  Alcotest.(check bool) "oldest profile evicted" true
    (Serve.Store.view store "a" = Serve.Store.Unknown)

(* Reading a profile's snapshot marks it used; asking for its bench does
   not.  Cap 2, upload a and b, read a, then upload c: the victim is b
   when a was viewed, and a when only its bench was asked. *)
let store_recency () =
  let prog = prog_of_shared () in
  let prof = pipeline_profile () in
  let run touch_a =
    let store = Serve.Store.create ~cap:2 () in
    let up name = ignore (must_upload store ~prog (upload_of ~name prof)) in
    up "a";
    up "b";
    touch_a store;
    up "c";
    let resident name = Serve.Store.bench_of store name <> None in
    (resident "a", resident "b")
  in
  Alcotest.(check (pair bool bool)) "view a: b evicted" (true, false)
    (run (fun store -> ignore (Serve.Store.view store "a")));
  Alcotest.(check (pair bool bool)) "bench_of a: a evicted" (false, true)
    (run (fun store -> ignore (Serve.Store.bench_of store "a")))

(* A rejected upload must not create (or, at the cap, evict for) its
   profile. *)
let rejected_upload_no_ghost () =
  let store = Serve.Store.create ~cap:1 () in
  let prog = prog_of_shared () in
  let prof = pipeline_profile () in
  ignore (must_upload store ~prog (upload_of ~name:"A" prof));
  let bad = { (upload_of ~name:"B" prof) with blocks = [ (9999, 0, 1.0) ] } in
  (match Serve.Store.upload store ~prog bad with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "out-of-range upload accepted");
  Alcotest.(check bool) "A still fresh" true
    (match Serve.Store.view store "A" with
    | Serve.Store.Fresh _ -> true
    | _ -> false);
  Alcotest.(check bool) "B unknown" true
    (Serve.Store.view store "B" = Serve.Store.Unknown);
  Alcotest.(check int) "nothing evicted" 0 (Serve.Store.evictions_total store)

(* ------------------------------------------------------------------ *)
(* Degradation tiers and deadlines                                     *)
(* ------------------------------------------------------------------ *)

let deadline_semantics () =
  let d = Lazy.force shared in
  let resp, _ =
    serve_one d (layout_line ~id:1 [ ("deadline_ms", Obs.Json.Int 0) ])
  in
  Alcotest.(check string) "zero deadline times out" "timeout" (status_of resp);
  (match Obs.Json.member "retry_after_ms" resp with
  | Some (Obs.Json.Int r) ->
      Alcotest.(check bool) "retry hint bounded" true (r >= 1 && r <= 10_000)
  | _ -> Alcotest.fail "timeout must carry retry_after_ms");
  let resp, _ =
    serve_one d (layout_line ~id:2 [ ("deadline_ms", Obs.Json.Int 1) ])
  in
  Alcotest.(check string) "tight deadline served" "ok" (status_of resp);
  Alcotest.(check string) "tier is cheapest-strategy" "cheapest-strategy"
    (str_field "tier" resp);
  Alcotest.(check string) "served the natural layout" "natural"
    (str_field "strategy" resp);
  Alcotest.(check string) "requested strategy reported" "impact"
    (str_field "requested_strategy" resp);
  (* The cheap tier answers with a certified miss interval from the
     abstract interpretation — no trace replay — instead of a simulated
     prediction. *)
  Alcotest.(check bool) "cheap tier does not simulate" true
    (Obs.Json.member "predicted" resp = None);
  (match Obs.Json.member "certified" resp with
  | Some c -> (
      match (Obs.Json.member "misses_lo" c, Obs.Json.member "misses_hi" c) with
      | Some (Obs.Json.Int lo), Some (Obs.Json.Int hi) ->
          Alcotest.(check bool) "certified interval ordered" true
            (0 <= lo && lo <= hi)
      | _ -> Alcotest.fail "certified must carry misses_lo/misses_hi")
  | None -> Alcotest.fail "cheap tier must carry a certified bound");
  (* A roomy deadline still gets the simulated prediction. *)
  let resp, _ =
    serve_one d (layout_line ~id:3 [ ("deadline_ms", Obs.Json.Int 30_000) ])
  in
  Alcotest.(check bool) "roomy deadline simulates" true
    (Obs.Json.member "predicted" resp <> None)

let raising_strategy_degrades () =
  let config =
    {
      small_config with
      extra_strategies = [ Serve.Chaos.chaos_strategy ];
    }
  in
  let d = Serve.Daemon.create ~config () in
  Obs.Log.set_quiet true;
  Fun.protect ~finally:(fun () -> Obs.Log.set_quiet false) @@ fun () ->
  let resp, _ =
    serve_one d
      (layout_line ~id:1 [ ("strategy", Obs.Json.String "chaos-raise") ])
  in
  Alcotest.(check string) "raising strategy still serves" "ok"
    (status_of resp);
  Alcotest.(check string) "tier is natural-fallback" "natural-fallback"
    (str_field "tier" resp);
  Alcotest.(check string) "natural layout substituted" "natural"
    (str_field "strategy" resp)

let poisoned_profile_tier () =
  let d = Serve.Daemon.create ~config:small_config () in
  let prof = pipeline_profile () in
  let upload =
    line_of
      (Serve.Protocol.upload_request_of_profile ~name:"g" ~bench ~epoch:1 prof)
  in
  let poison =
    request ~id:2 ~typ:"profile-upload"
      [
        ("profile", Obs.Json.String "g");
        ("bench", Obs.Json.String bench);
        ("epoch", Obs.Json.Int 2);
        ( "entries",
          Obs.Json.List [ Obs.Json.List [ Obs.Json.Int 0; Obs.Json.Int 3 ] ] );
      ]
  in
  let ask ~id =
    layout_line ~id [ ("profile", Obs.Json.String "g") ]
  in
  match Serve.Daemon.run_lines d [ upload; ask ~id:10; poison; ask ~id:11 ] with
  | [ up; fresh; poisoned; pinned ] ->
      Alcotest.(check string) "upload ok" "ok" (status_of up);
      Alcotest.(check string) "fresh tier" "none" (str_field "tier" fresh);
      Alcotest.(check string) "poisoning accepted" "ok" (status_of poisoned);
      Alcotest.(check string) "pinned tier" "last-good-epoch"
        (str_field "tier" pinned)
  | other -> Alcotest.failf "expected 4 responses, got %d" (List.length other)

let unknown_profile_errors () =
  let d = Lazy.force shared in
  let resp, _ =
    serve_one d
      (layout_line ~id:1 [ ("profile", Obs.Json.String "never-uploaded") ])
  in
  Alcotest.(check string) "unknown profile is an error" "error"
    (status_of resp);
  Alcotest.(check int) "usage code" 2 (error_code resp)

(* ------------------------------------------------------------------ *)
(* Context memo bounds                                                 *)
(* ------------------------------------------------------------------ *)

let context_memo_cap () =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) @@ fun () ->
  let before = Obs.Metrics.value Experiments.Context.memo_evictions in
  let ctx = Experiments.Context.create ~memo_cap:2 ~names:[ bench ] () in
  let entry = Experiments.Context.find ctx bench in
  let map = Experiments.Context.optimized_map entry in
  let trace = Experiments.Context.trace entry in
  let configs =
    List.map
      (fun size -> Icache.Config.make ~size ~block:64 ())
      [ 512; 1024; 2048; 4096 ]
  in
  let results =
    List.map (fun c -> Experiments.Context.simulate entry c map trace) configs
  in
  Alcotest.(check int) "all four configs simulated" 4 (List.length results);
  Alcotest.(check bool) "memo stays at its cap" true
    (Hashtbl.length entry.Experiments.Context.sim_cache <= 2);
  Alcotest.(check bool) "evictions counted" true
    (Obs.Metrics.value Experiments.Context.memo_evictions > before);
  (* Evicted points are recomputed with identical results. *)
  let again = Experiments.Context.simulate entry (List.hd configs) map trace in
  Alcotest.(check (float 0.0)) "recomputed result identical"
    (List.hd results).Sim.Driver.miss_ratio again.Sim.Driver.miss_ratio

(* Under a memo cap, interned maps whose results were all evicted are
   unpinned, and results stay those of an uncapped context. *)
let context_unpins_evicted_maps () =
  let config = Icache.Config.make ~size:2048 ~block:64 () in
  let misses ctx =
    let entry = Experiments.Context.find ctx bench in
    let trace = Experiments.Context.trace entry in
    let pipeline = Experiments.Context.pipeline entry in
    let prog = pipeline.Placement.Pipeline.program in
    let rs =
      List.init 20 (fun _ ->
          (Experiments.Context.simulate entry config
             (Placement.Address_map.natural prog)
             trace)
            .Sim.Driver.misses)
    in
    (entry, rs)
  in
  let capped, got =
    misses (Experiments.Context.create ~memo_cap:2 ~names:[ bench ] ())
  in
  let _, want = misses (Experiments.Context.create ~names:[ bench ] ()) in
  Alcotest.(check bool) "interned maps bounded by the cap" true
    (List.length capped.Experiments.Context.map_ids <= 2);
  Alcotest.(check (list int)) "results equal the uncapped context's" want got

let strategy_map_cap () =
  let ctx = Experiments.Context.create ~strategy_cap:2 ~names:[ bench ] () in
  let entry = Experiments.Context.find ctx bench in
  List.iter
    (fun s -> ignore (Experiments.Context.strategy_map entry s))
    Placement.Strategy.all;
  Alcotest.(check bool) "strategy maps bounded" true
    (List.length entry.Experiments.Context.strategy_maps <= 2)

(* ------------------------------------------------------------------ *)
(* Golden vectors, determinism and the socket front end                *)
(* ------------------------------------------------------------------ *)

(* A lone stdio client gets its read-only response while the daemon is
   still reading, not when the stream ends. *)
let lone_client_answered () =
  let d = Serve.Daemon.create ~config:small_config () in
  let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
  let ic = Unix.in_channel_of_descr req_r
  and oc = Unix.out_channel_of_descr resp_w in
  let server = Domain.spawn (fun () -> Serve.Daemon.serve_channels d ic oc) in
  let to_daemon = Unix.out_channel_of_descr req_w
  and from_daemon = Unix.in_channel_of_descr resp_r in
  let send line =
    output_string to_daemon (line ^ "\n");
    flush to_daemon
  in
  send (layout_line ~id:1 []);
  let answered =
    match Unix.select [ resp_r ] [] [] 30.0 with
    | [], _, _ -> false
    | _ -> true
  in
  send (request ~id:2 ~typ:"shutdown" []);
  let lines = List.init 2 (fun _ -> In_channel.input_line from_daemon) in
  Domain.join server;
  List.iter Unix.close [ req_r; req_w; resp_r; resp_w ];
  Alcotest.(check bool) "answered before shutdown" true answered;
  match lines with
  | [ Some layout; Some _ ] ->
      Alcotest.(check string) "layout served" "ok"
        (status_of (Obs.Json.parse_exn layout))
  | _ -> Alcotest.fail "expected two responses"

let connect path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.01;
        go (tries - 1)
  in
  go 1000

let send_line fd line =
  let s = line ^ "\n" in
  ignore (Unix.write_substring fd s 0 (String.length s))

(* A client that sends a request and hangs up before its reply ends that
   connection only: the write fails on a closed peer, and the daemon
   goes on to serve the next client. *)
let socket_client_hangs_up () =
  let path = Filename.temp_file "impact" ".sock" in
  (* A unique path with nothing there: a regular file would be refused. *)
  Sys.remove path;
  let d = Serve.Daemon.create ~config:small_config () in
  let server = Domain.spawn (fun () -> Serve.Daemon.serve_socket d ~path) in
  let quitter = connect path in
  send_line quitter (layout_line ~id:1 []);
  Unix.close quitter;
  let fd = connect path in
  let ic = Unix.in_channel_of_descr fd in
  send_line fd (request ~id:2 ~typ:"health" []);
  let health = In_channel.input_line ic in
  send_line fd (request ~id:3 ~typ:"shutdown" []);
  let bye = In_channel.input_line ic in
  Domain.join server;
  close_in ic;
  let status = function
    | Some l -> status_of (Obs.Json.parse_exn l)
    | None -> "<no reply>"
  in
  Alcotest.(check (list string)) "second client served" [ "ok"; "ok" ]
    [ status health; status bye ];
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* --socket never deletes a file that is not a socket.  The daemon is
   already stopped, so a call that wrongly took the path over would
   return at once instead of serving. *)
let socket_keeps_other_files () =
  let path = Filename.temp_file "impact" ".sock" in
  let contents = "not a socket\n" in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  let d = Serve.Daemon.create ~config:small_config () in
  ignore (Serve.Daemon.run_lines d [ request ~id:1 ~typ:"shutdown" [] ]);
  let refusal =
    match Serve.Daemon.serve_socket d ~path with
    | () -> None
    | exception Failure msg -> Some msg
  in
  let kept =
    if Sys.file_exists path then begin
      let s = In_channel.with_open_bin path In_channel.input_all in
      Sys.remove path;
      Some s
    end
    else None
  in
  Alcotest.(check (option string)) "file survives unchanged" (Some contents)
    kept;
  match refusal with
  | Some msg when contains_sub msg path -> ()
  | Some msg -> Alcotest.failf "refusal does not name the path: %s" msg
  | None -> Alcotest.fail "serve_socket took over a regular file"

let golden_replay () =
  let vector p = Helpers.read_lines (Helpers.vector_path p) in
  let requests = vector "vectors/serve/requests.ndjson" in
  let expected = vector "vectors/serve/responses.ndjson" in
  Obs.Log.set_quiet true;
  Fun.protect ~finally:(fun () -> Obs.Log.set_quiet false) @@ fun () ->
  let d = Serve.Daemon.create ~config:small_config () in
  let got = List.map line_of (Serve.Daemon.run_lines d requests) in
  Alcotest.(check int) "one response per recorded request"
    (List.length expected) (List.length got);
  List.iteri
    (fun i (g, e) ->
      Alcotest.(check string) (Printf.sprintf "response %d byte-identical" i) e
        g)
    (List.combine got expected)

(* Two daemons answer the same mixed stream byte for byte alike, also
   with a 2-lane default pool installed, as `impact` installs for -j 2:
   the daemon answers one request at a time and never uses the pool. *)
let serial_and_pool_agree () =
  Obs.Log.set_quiet true;
  Fun.protect ~finally:(fun () -> Obs.Log.set_quiet false) @@ fun () ->
  let lines =
    request ~id:0 ~typ:"stats" []
    :: List.concat_map
         (fun strategy ->
           [
             layout_line ~id:1 [ ("strategy", Obs.Json.String strategy) ];
             "garbage in the middle";
           ])
         [ "impact"; "natural"; "ph" ]
    @ [ request ~id:99 ~typ:"stats" []; request ~id:100 ~typ:"shutdown" [] ]
  in
  let run () =
    let d = Serve.Daemon.create ~config:small_config () in
    List.map line_of (Serve.Daemon.run_lines d lines)
  in
  let serial = run () in
  let parallel = Placement.Pool.with_default 2 run in
  Alcotest.(check (list string)) "responses byte-identical with a pool" serial
    parallel

let chaos_campaign () =
  Obs.Log.set_quiet true;
  Fun.protect ~finally:(fun () -> Obs.Log.set_quiet false) @@ fun () ->
  let report = Serve.Chaos.run ~seed:1234 ~n:60 () in
  Alcotest.(check int) "one response per request" report.Serve.Chaos.requests
    report.responses;
  Alcotest.(check (list string)) "no contract violations" []
    report.violations;
  Alcotest.(check bool) "staleness notifications pushed" true
    (report.notifications > 0);
  Alcotest.(check bool) "every abuse family exercised" true
    (List.length report.by_category >= 8);
  let sum f =
    List.fold_left (fun acc (_, s) -> acc + f s) 0 report.statuses_by_category
  in
  Alcotest.(check (list int)) "per-category statuses add up to the totals"
    [ report.ok; report.errors; report.timeouts ]
    [
      sum (fun (ok, _, _) -> ok);
      sum (fun (_, error, _) -> error);
      sum (fun (_, _, timeout) -> timeout);
    ]

(* ------------------------------------------------------------------ *)
(* Observability: stats v3, health, subscriptions, soak                *)
(* ------------------------------------------------------------------ *)

let int_field key resp =
  match Obs.Json.member key resp with
  | Some (Obs.Json.Int i) -> i
  | _ -> Alcotest.failf "field %S missing or not an int" key

let run_stream ?config lines =
  let config = Option.value config ~default:small_config in
  Obs.Log.set_quiet true;
  Fun.protect ~finally:(fun () -> Obs.Log.set_quiet false) @@ fun () ->
  let d = Serve.Daemon.create ~config () in
  Serve.Daemon.run_lines d lines

let is_notification resp =
  Obs.Json.member "type" resp = Some (Obs.Json.String "notification")

(* The raw poisoning upload from the golden stream: structurally valid,
   not flow-conserving, so it is accepted and marks the profile. *)
let poison_line ~id ~profile ~epoch =
  request ~id ~typ:"profile-upload"
    [
      ("profile", Obs.Json.String profile);
      ("bench", Obs.Json.String bench);
      ("epoch", Obs.Json.Int epoch);
      ( "entries",
        Obs.Json.List [ Obs.Json.List [ Obs.Json.Int 0; Obs.Json.Int 7 ] ] );
    ]

let upload_line ~id ~name ~epoch =
  line_of
    (Serve.Protocol.upload_request_of_profile ~id:(Obs.Json.Int id) ~name
       ~bench ~epoch (pipeline_profile ()))

(* The custom-profile map cache is LRU under [map_cap]: a hit refreshes
   its entry, so after A, B, A, C the victim is B, a following A still
   hits, and B comes back only by evicting again. *)
let custom_map_lru_cap () =
  let config = { small_config with Serve.Daemon.map_cap = 2 } in
  let layout ~id name =
    layout_line ~id [ ("profile", Obs.Json.String name) ]
  in
  let out =
    run_stream ~config
      [
        upload_line ~id:1 ~name:"A" ~epoch:1;
        upload_line ~id:2 ~name:"B" ~epoch:1;
        upload_line ~id:3 ~name:"C" ~epoch:1;
        layout ~id:4 "A";
        layout ~id:5 "B";
        layout ~id:6 "A";
        layout ~id:7 "C";
        request ~id:8 ~typ:"stats" [];
        layout ~id:9 "A";
        request ~id:10 ~typ:"stats" [];
        layout ~id:11 "B";
        request ~id:12 ~typ:"stats" [];
      ]
  in
  Alcotest.(check int) "one response per request" 12 (List.length out);
  List.iteri
    (fun i resp ->
      Alcotest.(check string) (Printf.sprintf "response %d ok" (i + 1)) "ok"
        (status_of resp))
    out;
  let maps_evicted n =
    match Obs.Json.member "evictions" (List.nth out (n - 1)) with
    | Some ev -> int_field "maps" ev
    | None -> Alcotest.failf "stats %d lacks evictions" n
  in
  Alcotest.(check int) "A, B, A, C evicts once" 1 (maps_evicted 8);
  Alcotest.(check int) "the refreshed A still hits" 1 (maps_evicted 10);
  Alcotest.(check int) "B was the victim" 2 (maps_evicted 12)

let stats_v3_fields () =
  let out =
    run_stream
      [
        layout_line ~id:1 [ ("strategy", Obs.Json.String "impact") ];
        request ~id:2 ~typ:"subscribe" [];
        request ~id:3 ~typ:"stats" [];
      ]
  in
  let stats = List.nth out 2 in
  Alcotest.(check int) "stats_version" 3 (int_field "stats_version" stats);
  (* v3 has no batching fields: requests are answered one at a time. *)
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " absent") true
        (Obs.Json.member key stats = None))
    [ "queue_wait"; "batch_size" ];
  (match Obs.Json.member "limits" stats with
  | Some limits ->
      Alcotest.(check bool) "limits.max_batch absent" true
        (Obs.Json.member "max_batch" limits = None)
  | None -> Alcotest.fail "stats lacks limits");
  (* Metrics are off in tests, so every wall-clock field is exactly
     zero — the determinism contract for the replay path. *)
  Alcotest.(check bool) "uptime is zero with metrics off" true
    (Obs.Json.member "uptime_seconds" stats = Some (Obs.Json.Float 0.0));
  Alcotest.(check int) "served" 2 (int_field "served" stats);
  Alcotest.(check int) "subscriptions" 1 (int_field "subscriptions" stats);
  Alcotest.(check int) "notifications" 0 (int_field "notifications" stats);
  (match Obs.Json.member "evictions" stats with
  | Some ev ->
      List.iter
        (fun k -> ignore (int_field k ev))
        [ "profiles"; "maps"; "memo" ]
  | None -> Alcotest.fail "stats lacks evictions");
  match Obs.Json.member "latency" stats with
  | Some lat -> (
      match Obs.Json.member "all" lat with
      | Some row ->
          Alcotest.(check int) "latency.all.count zero with metrics off" 0
            (int_field "count" row)
      | None -> Alcotest.fail "latency lacks the all row")
  | None -> Alcotest.fail "stats lacks latency"

let health_verdicts () =
  Obs.Log.set_quiet true;
  Fun.protect ~finally:(fun () -> Obs.Log.set_quiet false) @@ fun () ->
  let d = Serve.Daemon.create ~config:small_config () in
  let health id =
    match Serve.Daemon.run_lines d [ request ~id ~typ:"health" [] ] with
    | [ resp ] -> resp
    | _ -> Alcotest.fail "health did not answer exactly once"
  in
  let h1 = health 1 in
  Alcotest.(check string) "fresh daemon is ready" "ready"
    (str_field "verdict" h1);
  Alcotest.(check bool) "ready flag" true
    (Obs.Json.member "ready" h1 = Some (Obs.Json.Bool true));
  ignore
    (Serve.Daemon.run_lines d
       [ upload_line ~id:2 ~name:"sick" ~epoch:1;
         poison_line ~id:3 ~profile:"sick" ~epoch:2 ]);
  let h2 = health 4 in
  Alcotest.(check string) "poisoned profile degrades" "degraded"
    (str_field "verdict" h2);
  (match Obs.Json.member "checks" h2 with
  | Some checks ->
      Alcotest.(check int) "poisoned count surfaced" 1
        (int_field "poisoned_profiles" checks)
  | None -> Alcotest.fail "health lacks checks");
  Alcotest.(check bool) "not ready when degraded" true
    (Obs.Json.member "ready" h2 = Some (Obs.Json.Bool false))

(* The exactly-once contract: one notification per (cached layout,
   epoch).  A same-epoch merge bumps the revision but must not
   re-notify; a below-window (stale-epoch) upload must not notify; the
   next epoch notifies again for a map that is still stale. *)
let subscribe_exactly_once () =
  let out =
    run_stream
      [
        upload_line ~id:1 ~name:"live" ~epoch:5;
        layout_line ~id:2
          [
            ("strategy", Obs.Json.String "exttsp");
            ("profile", Obs.Json.String "live");
          ];
        request ~id:3 ~typ:"subscribe"
          [ ("profiles", Obs.Json.List [ Obs.Json.String "live" ]) ];
        upload_line ~id:4 ~name:"live" ~epoch:6;
        upload_line ~id:5 ~name:"live" ~epoch:6;
        request ~id:6 ~typ:"stats" [];
        upload_line ~id:7 ~name:"live" ~epoch:1;
        upload_line ~id:8 ~name:"live" ~epoch:7;
      ]
  in
  let notes, resps = List.partition is_notification out in
  Alcotest.(check int) "one response per request" 8 (List.length resps);
  Alcotest.(check int) "epochs 6 and 7 notify exactly once each" 2
    (List.length notes);
  let epochs = List.map (int_field "epoch") notes in
  Alcotest.(check (list int)) "notification epochs in order" [ 6; 7 ] epochs;
  List.iter
    (fun n ->
      Alcotest.(check string) "notification event" "layouts-stale"
        (str_field "event" n);
      Alcotest.(check string) "notification profile" "live"
        (str_field "profile" n);
      match Obs.Json.member "stale" n with
      | Some (Obs.Json.List (_ :: _)) -> ()
      | _ -> Alcotest.fail "notification has no stale layouts")
    notes;
  (* The repeated epoch-2 upload was rejected as stale, not notified. *)
  let rejected =
    List.filter
      (fun r ->
        Obs.Json.member "accepted" r = Some (Obs.Json.Bool false))
      resps
  in
  Alcotest.(check int) "stale-epoch upload rejected" 1 (List.length rejected)

(* An unsubscribed stream and a mismatched filter never notify. *)
let subscribe_filters () =
  let base subscribe =
    (if subscribe then
       [ request ~id:9 ~typ:"subscribe"
           [ ("profiles", Obs.Json.List [ Obs.Json.String "other" ]) ] ]
     else [])
    @ [
        upload_line ~id:1 ~name:"live" ~epoch:1;
        layout_line ~id:2
          [
            ("strategy", Obs.Json.String "exttsp");
            ("profile", Obs.Json.String "live");
          ];
        upload_line ~id:3 ~name:"live" ~epoch:2;
      ]
  in
  List.iter
    (fun subscribe ->
      let notes = List.filter is_notification (run_stream (base subscribe)) in
      Alcotest.(check int)
        (if subscribe then "filtered subscription silent"
         else "no subscribers, no notifications")
        0 (List.length notes))
    [ false; true ]

(* Subscribe/upload/layout interleavings: rerun with a 2-domain default
   pool installed, the serve loop emits byte-identical output —
   responses and notifications in the same positions. *)
let notifications_deterministic () =
  Obs.Log.set_quiet true;
  Fun.protect ~finally:(fun () -> Obs.Log.set_quiet false) @@ fun () ->
  let lines =
    [
      upload_line ~id:1 ~name:"live" ~epoch:1;
      layout_line ~id:2
        [
          ("strategy", Obs.Json.String "exttsp");
          ("profile", Obs.Json.String "live");
        ];
      request ~id:3 ~typ:"subscribe" [];
      layout_line ~id:4 [ ("strategy", Obs.Json.String "impact") ];
      layout_line ~id:5 [ ("strategy", Obs.Json.String "natural") ];
      upload_line ~id:6 ~name:"live" ~epoch:2;
      layout_line ~id:7
        [
          ("strategy", Obs.Json.String "exttsp");
          ("profile", Obs.Json.String "live");
        ];
      request ~id:8 ~typ:"health" [];
      upload_line ~id:9 ~name:"live" ~epoch:3;
      request ~id:10 ~typ:"stats" [];
    ]
  in
  let run () =
    let d = Serve.Daemon.create ~config:small_config () in
    List.map line_of (Serve.Daemon.run_lines d lines)
  in
  let serial = run () in
  Alcotest.(check bool) "stream produced notifications" true
    (List.exists (fun l -> contains_sub l "layouts-stale") serial);
  let parallel = Placement.Pool.with_default 2 run in
  Alcotest.(check (list string))
    "responses and notifications byte-identical with a pool" serial parallel

let mini_soak () =
  Obs.Log.set_quiet true;
  Fun.protect ~finally:(fun () -> Obs.Log.set_quiet false) @@ fun () ->
  let config =
    {
      (Serve.Soak.default_config ()) with
      Serve.Soak.duration_s = 1.0;
      interval_s = 0.2;
      round_requests = 8;
    }
  in
  let report = Serve.Soak.run ~config () in
  Alcotest.(check (list string)) "no soak violations" []
    report.Serve.Soak.violations;
  Alcotest.(check int) "one response per request" report.requests
    report.responses;
  Alcotest.(check bool) "staleness notifications flowed" true
    (report.notifications >= 1);
  Alcotest.(check bool) "memory was sampled" true (report.memory_samples >= 2);
  Alcotest.(check bool) "latency quantiles are live" true
    (Obs.Metrics.hist_quantile report.latency_all 0.5 > 0.0);
  (* The report document passes its own schema contract. *)
  let doc = Serve.Soak.report_json report in
  match Obs.Json.parse (Obs.Json.to_string doc) with
  | Ok reparsed ->
      Alcotest.(check bool) "soak report roundtrips" true
        (Obs.Json.member "schema" reparsed
        = Some (Obs.Json.String "impact.soak/v1"))
  | Error e -> Alcotest.failf "soak report does not reparse: %s" e

(* The soak reports its own daemon's map evictions, not the process-wide
   [serve.map_evictions] metric: another daemon evicts maps with metrics
   on first, and the soak's count must equal the metric's growth over
   the soak alone, when its daemon is the only one running. *)
let soak_own_evictions () =
  Obs.Log.set_quiet true;
  let metrics0 = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.set_quiet false;
      Obs.Metrics.set_enabled metrics0)
  @@ fun () ->
  let evicted = Obs.Metrics.counter "serve.map_evictions" in
  let start = Obs.Metrics.value evicted in
  let layout ~id name =
    layout_line ~id [ ("profile", Obs.Json.String name) ]
  in
  ignore
    (run_stream
       ~config:{ small_config with Serve.Daemon.map_cap = 1 }
       [
         upload_line ~id:1 ~name:"A" ~epoch:1;
         upload_line ~id:2 ~name:"B" ~epoch:1;
         layout ~id:3 "A";
         layout ~id:4 "B";
       ]);
  let before = Obs.Metrics.value evicted in
  Alcotest.(check bool) "the other daemon evicted a map" true (before > start);
  let report =
    Serve.Soak.run
      ~config:
        {
          (Serve.Soak.default_config ()) with
          Serve.Soak.duration_s = 0.5;
          interval_s = 0.2;
          round_requests = 8;
        }
      ()
  in
  Alcotest.(check int) "soak counts only its own evictions"
    (Obs.Metrics.value evicted - before)
    report.Serve.Soak.evictions_maps

(* The contract checker against synthetic streams: a clean stream
   passes, and each breach yields its own violation — an extra response
   included, which must be reported rather than raise. *)
let contract_checker () =
  let ok ?(fields = []) id =
    Serve.Protocol.ok_response ~id:(Obs.Json.Int id) ~request:"layout-request"
      fields
  in
  let note ?(stale = [ ("impact", "custom", 1) ]) epoch =
    Serve.Protocol.stale_notification ~trace:"t" ~profile:"p" ~epoch
      ~revision:2 ~poisoned:false ~stale
  in
  let cats = [ ("layout-chaos-strategy", [ "ok" ]); ("stats", [ "ok" ]) ] in
  let fallback =
    ok ~fields:[ ("tier", Obs.Json.String "natural-fallback") ] 1
  in
  let violations emitted =
    let c = Serve.Chaos.checker () in
    Serve.Chaos.check c cats emitted;
    (Serve.Chaos.finish c ~seed:0).Serve.Chaos.violations
  in
  Alcotest.(check (list string)) "clean stream" []
    (violations [ fallback; note 1; ok 2 ]);
  let breach what emitted needle =
    match violations emitted with
    | [ v ] when contains_sub v needle -> ()
    | vs ->
        Alcotest.failf "%s: expected one violation naming %S, got [%s]" what
          needle (String.concat "; " vs)
  in
  breach "missing response" [ fallback; note 1 ] "2 requests but 1 responses";
  breach "extra response" [ fallback; note 1; ok 2; ok 3 ]
    "2 requests but 3 responses";
  breach "status outside the set"
    [
      fallback;
      note 1;
      Serve.Protocol.timeout_response ~id:(Obs.Json.Int 2) ~request:"stats"
        ~retry_after_ms:5;
    ]
    "status \"timeout\"";
  breach "no natural fallback" [ ok 1; note 1; ok 2 ] "natural-fallback";
  breach "empty stale list" [ fallback; note 1; note ~stale:[] 2; ok 2 ]
    "at least one stale layout";
  breach "repeated staleness" [ fallback; note 1; ok 2; note 1 ]
    "pushed twice";
  breach "no notification" [ fallback; ok 2 ] "no staleness notification";
  (* The ledger spans batches: a repeat in a later batch is caught. *)
  let c = Serve.Chaos.checker () in
  Serve.Chaos.check c cats [ fallback; note 1; ok 2 ];
  Serve.Chaos.check c cats [ fallback; note 1; ok 2 ];
  Alcotest.(check int) "repeat across batches" 1
    (List.length (Serve.Chaos.finish c ~seed:0).violations)

(* Refusals answer with exact bytes.  Every upload and profile refusal
   takes the daemon's one error path; this pins what that path writes,
   beside the accepted upload that binds the profile and the stale-epoch
   upload, which is answered [accepted: false] rather than refused.  The
   golden stream carries none of these, and chaos checks only their
   status. *)
let refusals_byte_identical () =
  let d =
    Serve.Daemon.create
      ~config:{ small_config with benches = Some [ "cmp"; "tee" ] }
      ()
  in
  let upload ~id ?(bench = bench) ~epoch fields =
    request ~id ~typ:"profile-upload"
      ([
         ("profile", Obs.Json.String "bound");
         ("bench", Obs.Json.String bench);
         ("epoch", Obs.Json.Int epoch);
       ]
      @ fields)
  in
  let out_of_range =
    Obs.Json.List
      [ Obs.Json.List [ Obs.Json.Int 9999; Obs.Json.Int 0; Obs.Json.Int 1 ] ]
  in
  let lines =
    [
      upload ~id:1 ~epoch:10 [];
      upload ~id:2 ~bench:"tee" ~epoch:10 [];
      upload ~id:3 ~epoch:(-1) [];
      upload ~id:4 ~epoch:1 [];
      upload ~id:5 ~epoch:10 [ ("blocks", out_of_range) ];
      layout_line ~id:6 [ ("profile", Obs.Json.String "never-uploaded") ];
      layout_line ~bench:"tee" ~id:7 [ ("profile", Obs.Json.String "bound") ];
    ]
  in
  let expected =
    [
      {|{"schema":"impact.serve/v1","id":1,"type":"response","request":"profile-upload","status":"ok","accepted":true,"epoch":10,"min_live_epoch":7,"epochs_live":1,"poisoned":false,"flow_violations":0,"revision":1,"trace":"t-000001"}|};
      {|{"schema":"impact.serve/v1","id":2,"type":"response","request":"profile-upload","status":"error","error":{"stage":"usage","code":2,"message":"profile \"bound\" is bound to benchmark \"cmp\", not \"tee\""},"trace":"t-000002"}|};
      {|{"schema":"impact.serve/v1","id":3,"type":"response","request":"profile-upload","status":"error","error":{"stage":"usage","code":2,"message":"epoch must be >= 0"},"trace":"t-000003"}|};
      {|{"schema":"impact.serve/v1","id":4,"type":"response","request":"profile-upload","status":"ok","accepted":false,"reason":"stale-epoch","epoch":1,"min_live_epoch":7,"epochs_live":1,"poisoned":false,"flow_violations":0,"revision":1,"trace":"t-000004"}|};
      {|{"schema":"impact.serve/v1","id":5,"type":"response","request":"profile-upload","status":"error","error":{"stage":"usage","code":2,"message":"blocks: function id 9999 out of range (37 functions)"},"trace":"t-000005"}|};
      {|{"schema":"impact.serve/v1","id":6,"type":"response","request":"layout-request","status":"error","error":{"stage":"usage","code":2,"message":"unknown profile \"never-uploaded\""},"trace":"t-000006"}|};
      {|{"schema":"impact.serve/v1","id":7,"type":"response","request":"layout-request","status":"error","error":{"stage":"usage","code":2,"message":"profile \"bound\" is bound to benchmark \"cmp\", not \"tee\""},"trace":"t-000007"}|};
    ]
  in
  Alcotest.(check (list string)) "response lines" expected
    (List.map line_of (Serve.Daemon.run_lines d lines))

let suite =
  [
    Alcotest.test_case "protocol roundtrip" `Quick protocol_roundtrip;
    Alcotest.test_case "error taxonomy" `Quick error_taxonomy;
    Alcotest.test_case "lint min_prob range" `Quick lint_min_prob_range;
    Alcotest.test_case "request isolation" `Quick request_isolation;
    Alcotest.test_case "oversize bounded" `Quick oversize_bounded;
    Alcotest.test_case "oversize answered over a pipe" `Quick
      oversize_over_pipe;
    Alcotest.test_case "cache size bounded" `Quick cache_size_bounded;
    Alcotest.test_case "self-merge doubles weights" `Quick merge_self_doubles;
    QCheck_alcotest.to_alcotest merge_commutative;
    Alcotest.test_case "poisoned pins last good" `Quick poisoned_pins_last_good;
    Alcotest.test_case "stale epoch rejected" `Quick stale_epoch_rejected;
    Alcotest.test_case "store cap evicts LRU" `Quick store_cap_evicts;
    Alcotest.test_case "view refreshes, bench_of does not" `Quick
      store_recency;
    Alcotest.test_case "rejected upload leaves no ghost" `Quick
      rejected_upload_no_ghost;
    Alcotest.test_case "deadline semantics" `Quick deadline_semantics;
    Alcotest.test_case "raising strategy degrades" `Quick
      raising_strategy_degrades;
    Alcotest.test_case "poisoned profile tier" `Quick poisoned_profile_tier;
    Alcotest.test_case "unknown profile errors" `Quick unknown_profile_errors;
    Alcotest.test_case "context memo cap" `Quick context_memo_cap;
    Alcotest.test_case "context unpins evicted maps" `Quick
      context_unpins_evicted_maps;
    Alcotest.test_case "strategy map cap" `Quick strategy_map_cap;
    Alcotest.test_case "custom map LRU cap" `Quick custom_map_lru_cap;
    Alcotest.test_case "golden vector replay" `Quick golden_replay;
    Alcotest.test_case "serial and 2-lane pool answer alike" `Quick
      serial_and_pool_agree;
    Alcotest.test_case "lone client answered" `Quick lone_client_answered;
    Alcotest.test_case "socket survives a client that hangs up" `Quick
      socket_client_hangs_up;
    Alcotest.test_case "socket keeps other files" `Quick
      socket_keeps_other_files;
    Alcotest.test_case "stats v3 fields" `Quick stats_v3_fields;
    Alcotest.test_case "health verdicts" `Quick health_verdicts;
    Alcotest.test_case "subscribe notifies exactly once" `Quick
      subscribe_exactly_once;
    Alcotest.test_case "subscription filters" `Quick subscribe_filters;
    Alcotest.test_case "notifications deterministic" `Quick
      notifications_deterministic;
    Alcotest.test_case "mini soak" `Slow mini_soak;
    Alcotest.test_case "chaos campaign" `Slow chaos_campaign;
    Alcotest.test_case "soak counts its own evictions" `Slow
      soak_own_evictions;
    Alcotest.test_case "contract checker" `Quick contract_checker;
    Alcotest.test_case "refusals answer byte-identically" `Quick
      refusals_byte_identical;
  ]
