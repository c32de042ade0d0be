(* Fault-injection harness: fires a seeded stream of adversarial and
   valid requests at a daemon and checks the robustness contract —
   zero crashes, exactly one well-formed response per request, and the
   right status (and degradation tier, where one is forced) for every
   category of abuse. *)

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
  violations : string list;  (** contract breaches; [[]] = clean campaign *)
}

(* ------------------------------------------------------------------ *)
(* Request generators                                                  *)
(* ------------------------------------------------------------------ *)

let line_of json = Obs.Json.to_string json

let base ~id ~typ fields =
  Obs.Json.Obj
    ([
       ("schema", Obs.Json.String Protocol.schema);
       ("id", Obs.Json.Int id);
       ("type", Obs.Json.String typ);
     ]
    @ fields)

let layout_line ~id ~bench ~strategy extra =
  line_of
    (base ~id ~typ:"layout-request"
       ([ ("bench", Obs.Json.String bench);
          ("strategy", Obs.Json.String strategy) ]
       @ extra))

let cache_obj rng =
  let sizes = [| 1024; 2048; 4096 |] in
  let blocks = [| 32; 64 |] in
  Obs.Json.Obj
    [
      ("size", Obs.Json.Int (Workloads.Rng.pick rng sizes));
      ("block", Obs.Json.Int (Workloads.Rng.pick rng blocks));
    ]

let strategies = [| "impact"; "natural"; "ph"; "exttsp"; "c3" |]

(* One category per generator: (name, expected statuses, request line). *)
let generate rng ~benches ~config i : string * string list * string =
  let bench () = Workloads.Rng.pick_list rng benches in
  let bench0 = List.hd benches in
  match Workloads.Rng.int rng 18 with
  | 0 ->
      ( "layout-valid",
        [ "ok" ],
        layout_line ~id:i ~bench:(bench ())
          ~strategy:(Workloads.Rng.pick rng strategies)
          [ ("cache", cache_obj rng) ] )
  | 1 ->
      ( "layout-bad-bench",
        [ "error" ],
        layout_line ~id:i ~bench:"no-such-bench" ~strategy:"impact" [] )
  | 2 ->
      ( "layout-chaos-strategy",
        [ "ok" ],
        layout_line ~id:i ~bench:(bench ()) ~strategy:"chaos-raise" [] )
  | 3 ->
      ( "layout-deadline-0",
        [ "timeout" ],
        layout_line ~id:i ~bench:(bench ()) ~strategy:"impact"
          [ ("deadline_ms", Obs.Json.Int 0) ] )
  | 4 ->
      ( "layout-deadline-cheap",
        [ "ok" ],
        layout_line ~id:i ~bench:(bench ()) ~strategy:"impact"
          [
            ( "deadline_ms",
              Obs.Json.Int
                (Workloads.Rng.range rng 1 config.Daemon.cheap_threshold_ms) );
          ] )
  | 5 ->
      ( "layout-bad-config",
        [ "error" ],
        layout_line ~id:i ~bench:(bench ()) ~strategy:"impact"
          [
            ( "cache",
              Obs.Json.Obj
                [ ("size", Obs.Json.Int 7); ("block", Obs.Json.Int 3) ] );
          ] )
  | 6 ->
      (* Exists once uploads have landed; unknown before that. *)
      ( "layout-profile",
        [ "ok"; "error" ],
        layout_line ~id:i ~bench:bench0
          ~strategy:(Workloads.Rng.pick rng strategies)
          [ ("profile", Obs.Json.String "chaos-epoch") ] )
  | 7 ->
      (* Structurally valid but not flow-conserving: poisons the profile
         (status stays ok — that is the degradation contract). *)
      ( "upload-epoch",
        [ "ok" ],
        line_of
          (base ~id:i ~typ:"profile-upload"
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
             ]) )
  | 8 ->
      ( "upload-bad-ids",
        [ "error" ],
        line_of
          (base ~id:i ~typ:"profile-upload"
             [
               ("profile", Obs.Json.String "chaos-bad");
               ("bench", Obs.Json.String bench0);
               ( "blocks",
                 Obs.Json.List
                   [
                     Obs.Json.List
                       [ Obs.Json.Int 9999; Obs.Json.Int 0; Obs.Json.Int 1 ];
                   ] );
             ]) )
  | 9 ->
      let full =
        layout_line ~id:i ~bench:(bench ()) ~strategy:"impact"
          [ ("cache", cache_obj rng) ]
      in
      let cut = 1 + Workloads.Rng.int rng (String.length full - 1) in
      ("truncated", [ "error" ], String.sub full 0 cut)
  | 10 ->
      ( "depth-bomb",
        [ "error" ],
        String.concat "" (List.init 2000 (fun _ -> "[")) )
  | 11 ->
      ( "oversize",
        [ "error" ],
        String.make (config.Daemon.max_request_bytes + 16) 'x' )
  | 12 ->
      ( "bad-schema",
        [ "error" ],
        line_of
          (Obs.Json.Obj
             [
               ("schema", Obs.Json.String "impact.serve/v99");
               ("id", Obs.Json.Int i);
               ("type", Obs.Json.String "stats");
             ]) )
  | 13 ->
      (* Two half-written requests interleaved on one line. *)
      let a = layout_line ~id:i ~bench:(bench ()) ~strategy:"impact" [] in
      ( "half-written",
        [ "error" ],
        String.sub a 0 (String.length a / 2) ^ "{\"schema\":" )
  | 14 ->
      ( "lint-valid",
        [ "ok" ],
        line_of
          (base ~id:i ~typ:"lint-request"
             [
               ("bench", Obs.Json.String (bench ()));
               ( "strategy",
                 Obs.Json.String (Workloads.Rng.pick rng strategies) );
             ]) )
  | 15 ->
      (* Subscribing mid-campaign turns later accepted uploads into
         push notifications — the pairing below must stay correct. *)
      let profiles =
        if Workloads.Rng.int rng 2 = 0 then []
        else [ ("profiles", Obs.Json.List [ Obs.Json.String "chaos-epoch" ]) ]
      in
      ("subscribe", [ "ok" ], line_of (base ~id:i ~typ:"subscribe" profiles))
  | 16 -> ("health", [ "ok" ], line_of (base ~id:i ~typ:"health" []))
  | _ -> ("stats", [ "ok" ], line_of (base ~id:i ~typ:"stats" []))

(* ------------------------------------------------------------------ *)
(* Response contract                                                   *)
(* ------------------------------------------------------------------ *)

let field key resp =
  match Obs.Json.member key resp with
  | Some (Obs.Json.String s) -> Some s
  | _ -> None

let tier_of resp = field "tier" resp

let well_formed resp =
  field "status" resp <> None
  && field "request" resp <> None
  && field "schema" resp = Some Protocol.schema

let check_response ~cat ~expected ~index resp : string list =
  let violations = ref [] in
  let fail fmt =
    Printf.ksprintf (fun m -> violations := m :: !violations) fmt
  in
  if not (well_formed resp) then
    fail "request %d (%s): response not well-formed: %s" index cat
      (Obs.Json.to_string resp);
  (match field "status" resp with
  | Some s when List.mem s expected -> ()
  | Some s ->
      fail "request %d (%s): status %S, expected one of [%s]" index cat s
        (String.concat "; " expected)
  | None -> fail "request %d (%s): missing status" index cat);
  (match cat with
  | "layout-chaos-strategy" ->
      if tier_of resp <> Some "natural-fallback" then
        fail "request %d: chaos strategy should degrade to natural-fallback"
          index
  | "layout-deadline-cheap" ->
      if tier_of resp <> Some "cheapest-strategy" then
        fail "request %d: tight deadline should admit the cheapest strategy"
          index
  | "layout-deadline-0" ->
      if Obs.Json.member "retry_after_ms" resp = None then
        fail "request %d: timeout response must carry retry_after_ms" index
  | _ -> ());
  !violations

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
  (* Seed the store with one genuinely flow-conserving upload so the
     named-profile path is exercised from both sides of validity. *)
  let seed_upload =
    let entry = Experiments.Context.find (Daemon.context daemon) (List.hd benches) in
    let pipe = Experiments.Context.pipeline entry in
    line_of
      (Protocol.upload_request_of_profile ~id:(Obs.Json.Int (-1))
         ~name:"chaos-good" ~bench:(List.hd benches)
         pipe.Placement.Pipeline.profile)
  in
  let seeded = [ ("upload-valid", [ "ok" ], seed_upload) ] in
  let generated =
    List.init n (fun i -> generate rng ~benches ~config i)
  in
  let all = seeded @ generated in
  let lines = List.map (fun (_, _, l) -> l) all in
  let emitted = Daemon.run_lines daemon lines in
  (* Push notifications ride the same stream but answer no request:
     split them out before pairing requests with responses. *)
  let is_notification j =
    match Obs.Json.member "type" j with
    | Some (Obs.Json.String "notification") -> true
    | _ -> false
  in
  let notifications, responses = List.partition is_notification emitted in
  let violations = ref [] in
  List.iteri
    (fun i n ->
      let bad fmt =
        Printf.ksprintf (fun m -> violations := !violations @ [ m ]) fmt
      in
      if Obs.Json.member "schema" n <> Some (Obs.Json.String Protocol.schema)
      then bad "notification %d: wrong schema" i;
      (match Obs.Json.member "event" n with
      | Some (Obs.Json.String "layouts-stale") -> ()
      | _ -> bad "notification %d: event must be layouts-stale" i);
      match Obs.Json.member "stale" n with
      | Some (Obs.Json.List (_ :: _)) -> ()
      | _ -> bad "notification %d: must name at least one stale layout" i)
    notifications;
  if List.length responses <> List.length all then
    violations :=
      [
        Printf.sprintf "%d requests but %d responses" (List.length all)
          (List.length responses);
      ];
  let counts = Hashtbl.create 16 in
  let ok = ref 0 and errors = ref 0 and timeouts = ref 0 in
  List.iteri
    (fun index ((cat, expected, _), resp) ->
      Hashtbl.replace counts cat
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts cat));
      (match field "status" resp with
      | Some "ok" -> incr ok
      | Some "error" -> incr errors
      | Some "timeout" -> incr timeouts
      | _ -> ());
      violations := !violations @ check_response ~cat ~expected ~index resp)
    (List.combine
       (List.filteri (fun i _ -> i < List.length responses) all)
       responses);
  {
    seed;
    requests = List.length all;
    responses = List.length responses;
    notifications = List.length notifications;
    ok = !ok;
    errors = !errors;
    timeouts = !timeouts;
    by_category =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [] |> List.sort compare;
    violations = !violations;
  }

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
