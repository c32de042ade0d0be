(* Wire protocol of the layout service: `impact.serve/v1`.

   One JSON object per line in both directions.  Every parse failure is
   typed — the daemon turns it into a structured error response rather
   than dying — and every client mistake carries the PR 3 exit-code
   taxonomy ([Ir.Diag.exit_code]: usage errors 2, pipeline stages
   10..17, the linter 18) so scripted clients can dispatch on the same
   codes the CLI exits with.  Unexpected server-side exceptions are
   reported as stage ["internal"] with code 1 — a bug report, not a
   client error. *)

let schema = "impact.serve/v1"

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type upload = {
  profile : string;  (* profile-store name the counts merge into *)
  bench : string;  (* benchmark whose (inlined) program the ids index *)
  epoch : int option;  (* client generation; None = the store's current *)
  weight : float;  (* multiplier applied to every count of this upload *)
  blocks : (int * int * float) list;  (* fid, label, count *)
  arcs : (int * int * int * float) list;  (* fid, src, dst, count *)
  entries : (int * float) list;  (* fid, invocation count *)
  calls : (int * int * int * float) list;  (* caller, block, callee, count *)
}

type request =
  | Layout_request of {
      bench : string;
      strategy : string;
      config : Icache.Config.t;
      profile : string option;  (* layout from a named merged profile *)
      deadline_ms : int option;
    }
  | Profile_upload of upload
  | Lint_request of {
      bench : string;
      strategy : string;
      min_prob : float option;
    }
  | Stats
  | Subscribe of { profiles : string list option }
      (* push staleness notifications; None = every profile *)
  | Health
  | Shutdown

type parsed = { id : Obs.Json.t; req : request }

(* Structured failure: [stage]/[code] follow the CLI taxonomy. *)
type error_info = { stage : string; code : int; message : string }

let usage_error message = { stage = "usage"; code = 2; message }

let internal_error message = { stage = "internal"; code = 1; message }

let error_of_diag (d : Ir.Diag.t) =
  {
    stage = Ir.Diag.stage_name d.Ir.Diag.stage;
    code = Ir.Diag.exit_code d;
    message = Ir.Diag.to_string d;
  }

let error_of_exn = function
  | Ir.Diag.Fail d -> error_of_diag d
  | Workloads.Registry.Unknown_benchmark name ->
    usage_error (Printf.sprintf "unknown benchmark: %s" name)
  | Placement.Strategy.Unknown_strategy id ->
    usage_error (Printf.sprintf "unknown strategy: %s" id)
  | Icache.Config.Invalid msg ->
    usage_error (Printf.sprintf "invalid cache config: %s" msg)
  | Failure msg -> usage_error msg
  | exn -> internal_error (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

exception Bad of error_info

let bad fmt = Fmt.kstr (fun m -> raise (Bad (usage_error m))) fmt

let member key json = Obs.Json.member key json

let get_string ~what = function
  | Some (Obs.Json.String s) -> s
  | Some _ -> bad "%s must be a string" what
  | None -> bad "missing field %S" what

let get_opt_string ~what = function
  | Some (Obs.Json.String s) -> Some s
  | Some Obs.Json.Null | None -> None
  | Some _ -> bad "%s must be a string" what

let get_opt_int ~what = function
  | Some (Obs.Json.Int i) -> Some i
  | Some Obs.Json.Null | None -> None
  | Some _ -> bad "%s must be an integer" what

let get_number ~what = function
  | Obs.Json.Int i -> float_of_int i
  | Obs.Json.Float f ->
    if Float.is_finite f then f else bad "%s must be finite" what
  | _ -> bad "%s must be a number" what

let get_opt_number ~what = function
  | Some Obs.Json.Null | None -> None
  | Some j -> Some (get_number ~what j)

(* The simulated cache's state grows with its size, so one request must
   not name an arbitrarily large one: 1 MiB is 128x the paper's largest
   cache (8 KB). *)
let max_cache_bytes = 1 lsl 20

(* Cache geometry, mirroring the CLI's `simulate` flags: assoc is
   "direct" | "full" | an integer way count; fill is "whole" |
   "partial" | "sector:N".  Omitted fields default to the paper's
   2KB/64B direct-mapped whole-fill design point. *)
let parse_config json =
  match member "cache" json with
  | None -> Icache.Config.make ~size:2048 ~block:64 ()
  | Some (Obs.Json.Obj _ as c) ->
    let size =
      Option.value ~default:2048 (get_opt_int ~what:"cache.size" (member "size" c))
    in
    if size > max_cache_bytes then
      bad "cache.size must be at most %d bytes" max_cache_bytes;
    let block =
      Option.value ~default:64 (get_opt_int ~what:"cache.block" (member "block" c))
    in
    let assoc =
      match member "assoc" c with
      | None | Some Obs.Json.Null -> Icache.Config.Direct
      | Some (Obs.Json.String "direct") -> Icache.Config.Direct
      | Some (Obs.Json.String "full") -> Icache.Config.Full
      | Some (Obs.Json.Int n) -> Icache.Config.Ways n
      | Some _ -> bad "cache.assoc must be \"direct\", \"full\" or an integer"
    in
    let fill =
      match member "fill" c with
      | None | Some Obs.Json.Null -> Icache.Config.Whole
      | Some (Obs.Json.String "whole") -> Icache.Config.Whole
      | Some (Obs.Json.String "partial") -> Icache.Config.Partial
      | Some (Obs.Json.String s) -> (
        match String.split_on_char ':' s with
        | [ "sector"; n ] -> (
          match int_of_string_opt n with
          | Some n -> Icache.Config.Sectored n
          | None -> bad "cache.fill sector size must be an integer")
        | _ -> bad "cache.fill must be \"whole\", \"partial\" or \"sector:N\"")
      | Some _ -> bad "cache.fill must be a string"
    in
    let prefetch =
      match member "prefetch" c with
      | None | Some Obs.Json.Null | Some (Obs.Json.Bool false) -> false
      | Some (Obs.Json.Bool true) -> true
      | Some _ -> bad "cache.prefetch must be a boolean"
    in
    (* [make] re-validates; Invalid is mapped by [error_of_exn]. *)
    Icache.Config.make ~assoc ~fill ~prefetch ~size ~block ()
  | Some _ -> bad "cache must be an object"

let parse_count_rows ~what ~arity json =
  match json with
  | None -> []
  | Some (Obs.Json.List rows) ->
    List.mapi
      (fun i row ->
        match row with
        | Obs.Json.List cells when List.length cells = arity ->
          List.mapi
            (fun j cell ->
              get_number ~what:(Printf.sprintf "%s[%d][%d]" what i j) cell)
            cells
        | _ -> bad "%s[%d] must be an array of %d numbers" what i arity)
      rows
  | Some _ -> bad "%s must be an array" what

let int_cell ~what f =
  if Float.is_integer f && Float.abs f < 1e9 then int_of_float f
  else bad "%s must be a small integer" what

let nonneg ~what f = if f < 0.0 then bad "%s must be >= 0" what else f

let parse_upload json =
  let profile = get_string ~what:"profile" (member "profile" json) in
  let bench = get_string ~what:"bench" (member "bench" json) in
  let epoch = get_opt_int ~what:"epoch" (member "epoch" json) in
  let weight =
    match get_opt_number ~what:"weight" (member "weight" json) with
    | None -> 1.0
    | Some w when w > 0.0 && Float.is_finite w -> w
    | Some _ -> bad "weight must be > 0"
  in
  let blocks =
    List.map
      (function
        | [ fid; l; c ] ->
          ( int_cell ~what:"blocks fid" fid,
            int_cell ~what:"blocks label" l,
            nonneg ~what:"blocks count" c )
        | _ -> assert false)
      (parse_count_rows ~what:"blocks" ~arity:3 (member "blocks" json))
  in
  let arcs =
    List.map
      (function
        | [ fid; s; d; c ] ->
          ( int_cell ~what:"arcs fid" fid,
            int_cell ~what:"arcs src" s,
            int_cell ~what:"arcs dst" d,
            nonneg ~what:"arcs count" c )
        | _ -> assert false)
      (parse_count_rows ~what:"arcs" ~arity:4 (member "arcs" json))
  in
  let entries =
    List.map
      (function
        | [ fid; c ] ->
          ( int_cell ~what:"entries fid" fid,
            nonneg ~what:"entries count" c )
        | _ -> assert false)
      (parse_count_rows ~what:"entries" ~arity:2 (member "entries" json))
  in
  let calls =
    List.map
      (function
        | [ caller; block; callee; c ] ->
          ( int_cell ~what:"calls caller" caller,
            int_cell ~what:"calls block" block,
            int_cell ~what:"calls callee" callee,
            nonneg ~what:"calls count" c )
        | _ -> assert false)
      (parse_count_rows ~what:"calls" ~arity:4 (member "calls" json))
  in
  Profile_upload { profile; bench; epoch; weight; blocks; arcs; entries; calls }

let request_name = function
  | Layout_request _ -> "layout-request"
  | Profile_upload _ -> "profile-upload"
  | Lint_request _ -> "lint-request"
  | Stats -> "stats"
  | Subscribe _ -> "subscribe"
  | Health -> "health"
  | Shutdown -> "shutdown"

(* The request id is echoed verbatim in the response so clients can
   correlate pipelined traffic; it must stay scalar (a composite id
   would let a client smuggle unbounded data into every response). *)
let parse_id json =
  match member "id" json with
  | None -> Obs.Json.Null
  | Some (Obs.Json.String _ | Obs.Json.Int _ | Obs.Json.Null) ->
    Option.value ~default:Obs.Json.Null (member "id" json)
  | Some _ -> bad "id must be a string, an integer or null"

let parse_request ?max_bytes (line : string) :
    (parsed, Obs.Json.t * error_info) result =
  match Obs.Json.parse ?max_bytes line with
  | Error msg ->
    Error (Obs.Json.Null, usage_error (Printf.sprintf "parse error: %s" msg))
  | Ok json -> (
    try
      let id = parse_id json in
      try
        (match member "schema" json with
        | Some (Obs.Json.String s) when s = schema -> ()
        | Some (Obs.Json.String s) ->
          bad "unknown schema %S (this daemon speaks %s)" s schema
        | Some _ -> bad "schema must be a string"
        | None -> bad "missing field \"schema\"");
        let req =
          match get_string ~what:"type" (member "type" json) with
          | "layout-request" ->
            Layout_request
              {
                bench = get_string ~what:"bench" (member "bench" json);
                strategy =
                  Option.value ~default:"impact"
                    (get_opt_string ~what:"strategy" (member "strategy" json));
                config = parse_config json;
                profile = get_opt_string ~what:"profile" (member "profile" json);
                deadline_ms =
                  (match get_opt_int ~what:"deadline_ms" (member "deadline_ms" json) with
                  | Some d when d < 0 -> bad "deadline_ms must be >= 0"
                  | d -> d);
              }
          | "profile-upload" -> parse_upload json
          | "lint-request" ->
            Lint_request
              {
                bench = get_string ~what:"bench" (member "bench" json);
                strategy =
                  Option.value ~default:"impact"
                    (get_opt_string ~what:"strategy" (member "strategy" json));
                min_prob =
                  (match
                     get_opt_number ~what:"min_prob" (member "min_prob" json)
                   with
                  | None -> None
                  | Some p when p >= 0.0 && p <= 1.0 -> Some p
                  | Some _ -> bad "min_prob must be in [0, 1]");
              }
          | "stats" -> Stats
          | "subscribe" ->
            let profiles =
              match member "profiles" json with
              | None | Some Obs.Json.Null -> None
              | Some (Obs.Json.List items) ->
                Some
                  (List.mapi
                     (fun i item ->
                       match item with
                       | Obs.Json.String s -> s
                       | _ -> bad "profiles[%d] must be a string" i)
                     items)
              | Some _ -> bad "profiles must be an array of strings or null"
            in
            Subscribe { profiles }
          | "health" -> Health
          | "shutdown" -> Shutdown
          | other -> bad "unknown request type %S" other
        in
        Ok { id; req }
      with
      | Bad e -> Error (id, e)
      | exn ->
        (* e.g. [Icache.Config.Invalid] out of the validated
           constructor: parsing must be total. *)
        Error (id, error_of_exn exn)
    with
    | Bad e -> Error (Obs.Json.Null, e)
    | exn -> Error (Obs.Json.Null, error_of_exn exn))

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

(* Every line the service reads or writes opens with the same three
   fields. *)
let envelope ~id ~typ fields =
  Obs.Json.Obj
    (("schema", Obs.Json.String schema)
    :: ("id", id)
    :: ("type", Obs.Json.String typ)
    :: fields)

let request = envelope

let response ~id ~request ~status fields =
  envelope ~id ~typ:"response"
    (("request", Obs.Json.String request)
    :: ("status", Obs.Json.String status)
    :: fields)

let ok_response ~id ~request fields = response ~id ~request ~status:"ok" fields

let error_response ~id ~request (e : error_info) =
  response ~id ~request ~status:"error"
    [
      ( "error",
        Obs.Json.Obj
          [
            ("stage", Obs.Json.String e.stage);
            ("code", Obs.Json.Int e.code);
            ("message", Obs.Json.String e.message);
          ] );
    ]

let timeout_response ~id ~request ~retry_after_ms =
  response ~id ~request ~status:"timeout"
    [ ("retry_after_ms", Obs.Json.Int retry_after_ms) ]

(* Server-push staleness notification (subscribe): not a response to
   any request, so "type" is "notification" and the id is null.  The
   trace ties it to the profile-upload that advanced the epoch. *)
let stale_notification ~trace ~profile ~epoch ~revision ~poisoned ~stale =
  envelope ~id:Obs.Json.Null ~typ:"notification"
    [
      ("event", Obs.Json.String "layouts-stale");
      ("trace", Obs.Json.String trace);
      ("profile", Obs.Json.String profile);
      ("epoch", Obs.Json.Int epoch);
      ("revision", Obs.Json.Int revision);
      ("poisoned", Obs.Json.Bool poisoned);
      ( "stale",
        Obs.Json.List
          (List.map
             (fun (strategy, kind, rev) ->
               Obs.Json.Obj
                 [
                   ("strategy", Obs.Json.String strategy);
                   ("kind", Obs.Json.String kind);
                   ("revision", Obs.Json.Int rev);
                 ])
             stale) );
    ]

(* ------------------------------------------------------------------ *)
(* Building an upload from a measured profile                          *)
(* ------------------------------------------------------------------ *)

(* Serializes a [Vm.Profile.t] as a profile-upload request — how the
   test suite, the golden vectors and `serve.exe --sample` produce
   realistic traffic.  Rows are sorted so output is deterministic. *)
let upload_request_of_profile ?(id = Obs.Json.Null) ~name ~bench ?epoch
    ?(weight = 1.0) (p : Vm.Profile.t) : Obs.Json.t =
  let num f = Obs.Json.Float f in
  let blocks = ref [] and arcs = ref [] in
  Array.iteri
    (fun fid (fp : Vm.Profile.func_profile) ->
      Array.iteri
        (fun l c -> if c > 0 then blocks := (fid, l, c) :: !blocks)
        fp.Vm.Profile.block_counts;
      Array.iteri
        (fun src tbl ->
          Hashtbl.iter
            (fun dst c -> if c > 0 then arcs := (fid, src, dst, c) :: !arcs)
            tbl)
        fp.Vm.Profile.arc_counts)
    p.Vm.Profile.funcs;
  let entries = ref [] in
  Array.iteri
    (fun fid c -> if c > 0 then entries := (fid, c) :: !entries)
    p.Vm.Profile.entry_counts;
  let calls = ref [] in
  Hashtbl.iter
    (fun (caller, block, callee) c ->
      if c > 0 then calls := (caller, block, callee, c) :: !calls)
    p.Vm.Profile.site_counts;
  let rows3 xs =
    Obs.Json.List
      (List.map
         (fun (a, b, c) ->
           Obs.Json.List [ Obs.Json.Int a; Obs.Json.Int b; num (float_of_int c) ])
         (List.sort compare xs))
  in
  let rows4 xs =
    Obs.Json.List
      (List.map
         (fun (a, b, c, d) ->
           Obs.Json.List
             [ Obs.Json.Int a; Obs.Json.Int b; Obs.Json.Int c;
               num (float_of_int d) ])
         (List.sort compare xs))
  in
  let rows2 xs =
    Obs.Json.List
      (List.map
         (fun (a, b) -> Obs.Json.List [ Obs.Json.Int a; num (float_of_int b) ])
         (List.sort compare xs))
  in
  request ~id ~typ:"profile-upload"
    ([ ("profile", Obs.Json.String name); ("bench", Obs.Json.String bench) ]
    @ (match epoch with
      | Some e -> [ ("epoch", Obs.Json.Int e) ]
      | None -> [])
    @ [
        ("weight", num weight);
        ("blocks", rows3 !blocks);
        ("arcs", rows4 !arcs);
        ("entries", rows2 !entries);
        ("calls", rows4 !calls);
      ])
