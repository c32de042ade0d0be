(* Fault-injection harness: fires a seeded stream of adversarial and
   valid requests at a daemon and checks the serve contract — zero
   crashes, exactly one well-formed response per request, the right
   status (and degradation tier, where one is forced) for every
   category of abuse, and well-formed staleness notifications pushed
   exactly once.  The contract checker is shared with the soak
   harness. *)

let chaos_strategy : Placement.Strategy.t =
  {
    id = "chaos-raise";
    title = "chaos: always raises";
    layout = (fun _ _ -> failwith "chaos-raise: injected layout failure");
    global = (fun _ ~entry:_ _ -> failwith "chaos-raise: injected global failure");
    entry_first = false;
    splits_dead_code = false;
  }

(* Small caps and a small size limit so the campaign actually crosses
   every bound it is meant to test. *)
let default_config () =
  let benches =
    match Workloads.Registry.names with
    | a :: b :: _ -> [ a; b ]
    | names -> names
  in
  {
    Daemon.default_config with
    max_request_bytes = 1 lsl 16;
    profile_cap = 4;
    memo_cap = 16;
    strategy_cap = 4;
    map_cap = 4;
    benches = Some benches;
    extra_strategies = [ chaos_strategy ];
  }

type report = {
  seed : int;
  requests : int;
  responses : int;
  notifications : int;
      (** push staleness notifications interleaved in the output *)
  ok : int;
  errors : int;
  timeouts : int;
  by_category : (string * int) list;
  statuses_by_category : (string * (int * int * int)) list;
      (** per category: (ok, error, timeout) responses *)
  violations : string list;  (** contract breaches; [[]] = clean campaign *)
}

(* ------------------------------------------------------------------ *)
(* Request generators                                                  *)
(* ------------------------------------------------------------------ *)

let line_of ~id ~typ fields =
  Obs.Json.to_string (Protocol.request ~id:(Obs.Json.Int id) ~typ fields)

let layout_line ~id ~bench ~strategy extra =
  line_of ~id ~typ:"layout-request"
    ([
       ("bench", Obs.Json.String bench);
       ("strategy", Obs.Json.String strategy);
     ]
    @ extra)

let cache_obj rng =
  let sizes = [| 1024; 2048; 4096 |] in
  let blocks = [| 32; 64 |] in
  Obs.Json.Obj
    [
      ("size", Obs.Json.Int (Workloads.Rng.pick rng sizes));
      ("block", Obs.Json.Int (Workloads.Rng.pick rng blocks));
    ]

let strategies = [| "impact"; "natural"; "ph"; "exttsp"; "c3" |]

(* One category per generator: ((name, expected statuses), request line). *)
let generate rng ~benches ~config i : (string * string list) * string =
  let bench () = Workloads.Rng.pick_list rng benches in
  let bench0 = List.hd benches in
  match Workloads.Rng.int rng 18 with
  | 0 ->
      ( ("layout-valid", [ "ok" ]),
        layout_line ~id:i ~bench:(bench ())
          ~strategy:(Workloads.Rng.pick rng strategies)
          [ ("cache", cache_obj rng) ] )
  | 1 ->
      ( ("layout-bad-bench", [ "error" ]),
        layout_line ~id:i ~bench:"no-such-bench" ~strategy:"impact" [] )
  | 2 ->
      ( ("layout-chaos-strategy", [ "ok" ]),
        layout_line ~id:i ~bench:(bench ()) ~strategy:"chaos-raise" [] )
  | 3 ->
      ( ("layout-deadline-0", [ "timeout" ]),
        layout_line ~id:i ~bench:(bench ()) ~strategy:"impact"
          [ ("deadline_ms", Obs.Json.Int 0) ] )
  | 4 ->
      ( ("layout-deadline-cheap", [ "ok" ]),
        layout_line ~id:i ~bench:(bench ()) ~strategy:"impact"
          [
            ( "deadline_ms",
              Obs.Json.Int
                (Workloads.Rng.range rng 1 Daemon.cheap_threshold_ms) );
          ] )
  | 5 ->
      ( ("layout-bad-config", [ "error" ]),
        layout_line ~id:i ~bench:(bench ()) ~strategy:"impact"
          [
            ( "cache",
              Obs.Json.Obj
                [ ("size", Obs.Json.Int 7); ("block", Obs.Json.Int 3) ] );
          ] )
  | 6 ->
      (* Exists once uploads have landed; unknown before that. *)
      ( ("layout-profile", [ "ok"; "error" ]),
        layout_line ~id:i ~bench:bench0
          ~strategy:(Workloads.Rng.pick rng strategies)
          [ ("profile", Obs.Json.String "chaos-epoch") ] )
  | 7 ->
      (* Structurally valid but not flow-conserving: poisons the profile
         (status stays ok — that is the degradation contract). *)
      ( ("upload-epoch", [ "ok" ]),
        line_of ~id:i ~typ:"profile-upload"
          [
            ("profile", Obs.Json.String "chaos-epoch");
            ("bench", Obs.Json.String bench0);
            ("epoch", Obs.Json.Int (Workloads.Rng.int rng 9));
            ( "entries",
              Obs.Json.List
                [
                  Obs.Json.List
                    [
                      Obs.Json.Int 0;
                      Obs.Json.Float
                        (float_of_int (1 + Workloads.Rng.int rng 50));
                    ];
                ] );
          ] )
  | 8 ->
      ( ("upload-bad-ids", [ "error" ]),
        line_of ~id:i ~typ:"profile-upload"
          [
            ("profile", Obs.Json.String "chaos-bad");
            ("bench", Obs.Json.String bench0);
            ( "blocks",
              Obs.Json.List
                [
                  Obs.Json.List
                    [ Obs.Json.Int 9999; Obs.Json.Int 0; Obs.Json.Int 1 ];
                ] );
          ] )
  | 9 ->
      let full =
        layout_line ~id:i ~bench:(bench ()) ~strategy:"impact"
          [ ("cache", cache_obj rng) ]
      in
      let cut = 1 + Workloads.Rng.int rng (String.length full - 1) in
      (("truncated", [ "error" ]), String.sub full 0 cut)
  | 10 ->
      ( ("depth-bomb", [ "error" ]),
        String.concat "" (List.init 2000 (fun _ -> "[")) )
  | 11 ->
      ( ("oversize", [ "error" ]),
        String.make (config.Daemon.max_request_bytes + 16) 'x' )
  | 12 ->
      ( ("bad-schema", [ "error" ]),
        Printf.sprintf {|{"schema":"impact.serve/v99","id":%d,"type":"stats"}|}
          i )
  | 13 ->
      (* Two half-written requests interleaved on one line. *)
      let a = layout_line ~id:i ~bench:(bench ()) ~strategy:"impact" [] in
      ( ("half-written", [ "error" ]),
        String.sub a 0 (String.length a / 2) ^ "{\"schema\":" )
  | 14 ->
      ( ("lint-valid", [ "ok" ]),
        line_of ~id:i ~typ:"lint-request"
          [
            ("bench", Obs.Json.String (bench ()));
            ("strategy", Obs.Json.String (Workloads.Rng.pick rng strategies));
          ] )
  | 15 ->
      (* Re-subscribing mid-campaign (filtered or not) must leave the
         pairing of responses with requests intact. *)
      let profiles =
        if Workloads.Rng.int rng 2 = 0 then []
        else [ ("profiles", Obs.Json.List [ Obs.Json.String "chaos-epoch" ]) ]
      in
      (("subscribe", [ "ok" ]), line_of ~id:i ~typ:"subscribe" profiles)
  | 16 -> (("health", [ "ok" ]), line_of ~id:i ~typ:"health" [])
  | _ -> (("stats", [ "ok" ]), line_of ~id:i ~typ:"stats" [])

(* A flow-conserving upload of [profile] (epoch 1), a subscribe-all
   client, one layout against the profile so a custom map is cached,
   and a flow-conserving re-upload at epoch 2 that makes the map stale:
   the stream pushes at least one notification. *)
let prelude daemon ~bench ~profile =
  let pipe =
    Experiments.Context.pipeline
      (Experiments.Context.find (Daemon.context daemon) bench)
  in
  let upload cat ~id ~epoch =
    ( (cat, [ "ok" ]),
      Obs.Json.to_string
        (Protocol.upload_request_of_profile ~id:(Obs.Json.Int id)
           ~name:profile ~bench ~epoch pipe.Placement.Pipeline.profile) )
  in
  [
    upload "upload-valid" ~id:(-1) ~epoch:1;
    (("subscribe", [ "ok" ]), line_of ~id:(-2) ~typ:"subscribe" []);
    ( ("layout-good", [ "ok" ]),
      layout_line ~id:(-3) ~bench ~strategy:"impact"
        [ ("profile", Obs.Json.String profile) ] );
    upload "upload-advance" ~id:(-4) ~epoch:2;
  ]

(* ------------------------------------------------------------------ *)
(* The serve contract                                                  *)
(* ------------------------------------------------------------------ *)

let field key resp =
  match Obs.Json.member key resp with
  | Some (Obs.Json.String s) -> Some s
  | _ -> None

type checker = {
  counts : (string, int) Hashtbl.t;  (* requests per category *)
  statuses : (string, int array) Hashtbl.t;
      (* category -> [| ok; error; timeout |] responses *)
  seen : (string * string * string * int, unit) Hashtbl.t;
      (* exactly-once ledger: (profile, strategy, kind, epoch) pushed *)
  mutable requests : int;
  mutable responses : int;
  mutable notifications : int;
  mutable ok : int;
  mutable errors : int;
  mutable timeouts : int;
  mutable violations : string list;  (* newest first *)
}

let checker () =
  {
    counts = Hashtbl.create 16;
    statuses = Hashtbl.create 16;
    seen = Hashtbl.create 16;
    requests = 0;
    responses = 0;
    notifications = 0;
    ok = 0;
    errors = 0;
    timeouts = 0;
    violations = [];
  }

let violate c fmt =
  Printf.ksprintf (fun m -> c.violations <- m :: c.violations) fmt

let check_response c ~cat ~expected ~index resp =
  if
    field "request" resp = None || field "schema" resp <> Some Protocol.schema
  then
    violate c "request %d (%s): response not well-formed: %s" index cat
      (Obs.Json.to_string resp);
  (match field "status" resp with
  | Some s ->
      let tally i =
        let t =
          match Hashtbl.find_opt c.statuses cat with
          | Some t -> t
          | None ->
              let t = Array.make 3 0 in
              Hashtbl.replace c.statuses cat t;
              t
        in
        t.(i) <- t.(i) + 1
      in
      (match s with
      | "ok" -> c.ok <- c.ok + 1; tally 0
      | "error" -> c.errors <- c.errors + 1; tally 1
      | "timeout" -> c.timeouts <- c.timeouts + 1; tally 2
      | _ -> ());
      if not (List.mem s expected) then
        violate c "request %d (%s): status %S, expected one of [%s]" index cat
          s (String.concat "; " expected)
  | None -> violate c "request %d (%s): missing status" index cat);
  match cat with
  | "layout-chaos-strategy" ->
      if field "tier" resp <> Some "natural-fallback" then
        violate c
          "request %d: chaos strategy should degrade to natural-fallback" index
  | "layout-deadline-cheap" ->
      if field "tier" resp <> Some "cheapest-strategy" then
        violate c
          "request %d: tight deadline should admit the cheapest strategy" index
  | "layout-deadline-0" ->
      if Obs.Json.member "retry_after_ms" resp = None then
        violate c "request %d: timeout response must carry retry_after_ms"
          index
  | _ -> ()

let check_notification c n =
  let i = c.notifications in
  c.notifications <- i + 1;
  if field "schema" n <> Some Protocol.schema then
    violate c "notification %d: wrong schema" i;
  if field "event" n <> Some "layouts-stale" then
    violate c "notification %d: event must be layouts-stale" i;
  let profile =
    match field "profile" n with
    | Some p -> p
    | None ->
        violate c "notification %d: no profile" i;
        "?"
  in
  let epoch =
    match Obs.Json.member "epoch" n with
    | Some (Obs.Json.Int e) -> e
    | _ ->
        violate c "notification %d: no epoch" i;
        -1
  in
  match Obs.Json.member "stale" n with
  | Some (Obs.Json.List (_ :: _ as rows)) ->
      List.iter
        (fun row ->
          let str k = Option.value ~default:"?" (field k row) in
          let key = (profile, str "strategy", str "kind", epoch) in
          if Hashtbl.mem c.seen key then
            violate c "notification %d: %s/%s/%s epoch %d pushed twice" i
              profile (str "strategy") (str "kind") epoch
          else Hashtbl.add c.seen key ())
        rows
  | _ -> violate c "notification %d: must name at least one stale layout" i

(* Push notifications ride the same stream but answer no request: they
   are split out before responses are paired with requests, in order. *)
let check c cats emitted =
  let notes, resps =
    List.partition (fun j -> field "type" j = Some "notification") emitted
  in
  let n = List.length cats and m = List.length resps in
  if m <> n then violate c "%d requests but %d responses" n m;
  List.iter (check_notification c) notes;
  let rec pair index cats resps =
    match (cats, resps) with
    | (cat, expected) :: cats, resp :: resps ->
        check_response c ~cat ~expected ~index resp;
        pair (index + 1) cats resps
    | _ -> ()
  in
  pair c.requests cats resps;
  List.iter
    (fun (cat, _) ->
      Hashtbl.replace c.counts cat
        (1 + Option.value ~default:0 (Hashtbl.find_opt c.counts cat)))
    cats;
  c.requests <- c.requests + n;
  c.responses <- c.responses + m

let finish c ~seed =
  {
    seed;
    requests = c.requests;
    responses = c.responses;
    notifications = c.notifications;
    ok = c.ok;
    errors = c.errors;
    timeouts = c.timeouts;
    by_category =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.counts []
      |> List.sort compare;
    statuses_by_category =
      Hashtbl.fold
        (fun k t acc -> (k, (t.(0), t.(1), t.(2))) :: acc)
        c.statuses []
      |> List.sort compare;
    violations =
      List.rev c.violations
      @
      if c.notifications = 0 then [ "no staleness notification observed" ]
      else [];
  }

(* ------------------------------------------------------------------ *)
(* The campaign                                                        *)
(* ------------------------------------------------------------------ *)

let run ?(seed = 0xC4A05) ?(n = 200) ?config () : report =
  let config = match config with Some c -> c | None -> default_config () in
  let daemon = Daemon.create ~config () in
  let benches =
    match config.benches with
    | Some l -> l
    | None -> Workloads.Registry.names
  in
  let rng = Workloads.Rng.create seed in
  let all =
    prelude daemon ~bench:(List.hd benches) ~profile:"chaos-good"
    @ List.init n (fun i -> generate rng ~benches ~config i)
  in
  let c = checker () in
  check c (List.map fst all) (Daemon.run_lines daemon (List.map snd all));
  finish c ~seed

let report_json (r : report) =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String "impact.serve-chaos/v1");
      ("seed", Obs.Json.Int r.seed);
      ("requests", Obs.Json.Int r.requests);
      ("responses", Obs.Json.Int r.responses);
      ("notifications", Obs.Json.Int r.notifications);
      ("ok", Obs.Json.Int r.ok);
      ("errors", Obs.Json.Int r.errors);
      ("timeouts", Obs.Json.Int r.timeouts);
      ( "by_category",
        Obs.Json.Obj
          (List.map (fun (k, v) -> (k, Obs.Json.Int v)) r.by_category) );
      ( "statuses_by_category",
        Obs.Json.Obj
          (List.map
             (fun (k, (ok, error, timeout)) ->
               ( k,
                 Obs.Json.Obj
                   [
                     ("ok", Obs.Json.Int ok);
                     ("error", Obs.Json.Int error);
                     ("timeout", Obs.Json.Int timeout);
                   ] ))
             r.statuses_by_category) );
      ( "violations",
        Obs.Json.List (List.map (fun v -> Obs.Json.String v) r.violations) );
    ]

let summary (r : report) =
  Printf.sprintf
    "chaos: seed %#x, %d requests -> %d responses + %d notifications (%d ok, \
     %d error, %d timeout), %d violation%s"
    r.seed r.requests r.responses r.notifications r.ok r.errors r.timeouts
    (List.length r.violations)
    (if List.length r.violations = 1 then "" else "s")
