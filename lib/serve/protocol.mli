(** Wire protocol of the layout service (`impact.serve/v1`): one JSON
    object per line in both directions, typed parse errors, and error
    responses carrying the PR 3 exit-code taxonomy. *)

val schema : string
(** ["impact.serve/v1"]. *)

val max_cache_bytes : int
(** Largest [cache.size] a layout request may name (1 MiB); a larger
    one is a usage error. *)

type upload = {
  profile : string;
  bench : string;
  epoch : int option;
  weight : float;
  blocks : (int * int * float) list;  (** fid, label, count *)
  arcs : (int * int * int * float) list;  (** fid, src, dst, count *)
  entries : (int * float) list;  (** fid, invocation count *)
  calls : (int * int * int * float) list;
      (** caller fid, block, callee fid, count *)
}

type request =
  | Layout_request of {
      bench : string;
      strategy : string;
      config : Icache.Config.t;
      profile : string option;
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
      (** register for push staleness notifications; [None] = every
          profile *)
  | Health
  | Shutdown

type parsed = { id : Obs.Json.t; req : request }
(** [id] is echoed verbatim in the response (scalar JSON only). *)

type error_info = { stage : string; code : int; message : string }
(** [stage]/[code] follow {!Ir.Diag.exit_code}: usage errors are 2, the
    pipeline stages own 10..17, the linter 18; stage ["internal"] with
    code 1 marks an unexpected server-side exception. *)

val usage_error : string -> error_info

val error_of_exn : exn -> error_info
(** Total: maps every exception to a structured error ([Diag.Fail] to
    its stage, the registry/strategy/config/Failure family to usage,
    anything else to [internal]). *)

val request_name : request -> string

val parse_request :
  ?max_depth:int ->
  ?max_bytes:int ->
  string ->
  (parsed, Obs.Json.t * error_info) result
(** Parse one request line.  On error, the returned id is the request's
    own when it could be extracted (so the error response still
    correlates), [Null] otherwise. *)

val request :
  id:Obs.Json.t -> typ:string -> (string * Obs.Json.t) list -> Obs.Json.t
(** A request object: the [schema]/[id]/[type] envelope followed by
    [fields] in order.  Every well-formed request the tests, the
    harnesses and [serve.exe --sample] send is built here. *)

val ok_response :
  id:Obs.Json.t -> request:string -> (string * Obs.Json.t) list -> Obs.Json.t

val error_response :
  id:Obs.Json.t -> request:string -> error_info -> Obs.Json.t

val timeout_response :
  id:Obs.Json.t -> request:string -> retry_after_ms:int -> Obs.Json.t

val stale_notification :
  trace:string ->
  profile:string ->
  epoch:int ->
  revision:int ->
  poisoned:bool ->
  stale:(string * string * int) list ->
  Obs.Json.t
(** Server-push line ([type] "notification", [event] "layouts-stale",
    null id) announcing that cached layouts for [profile] went stale as
    its epoch advanced; [stale] rows are (strategy, kind, revision) of
    the invalidated cache entries, and [trace] names the upload request
    that caused the push. *)

val upload_request_of_profile :
  ?id:Obs.Json.t ->
  name:string ->
  bench:string ->
  ?epoch:int ->
  ?weight:float ->
  Vm.Profile.t ->
  Obs.Json.t
(** Serialize a measured profile as a profile-upload request (used by
    tests, the golden vectors and [serve.exe --sample]); deterministic
    row order. *)
