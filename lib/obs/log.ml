(* One log sink for the progress/warning chatter around the pipeline.

   Severity prefixes match [Ir.Diag]'s rendering ("[warning ...]",
   "[error ...]"); preformatted diagnostics go through the [_raw]
   entry points unchanged so they are not double-prefixed.  The default
   sink writes to stderr, keeping stdout a pure table/report stream;
   [set_quiet true] (the CLI's --quiet) drops [Warn] while [Error]
   always gets through.

   A mutex serializes sink invocations, so messages emitted from
   concurrent domains (e.g. a degradation warning surfacing inside a
   parallel table build) arrive whole instead of interleaved. *)

type level = Warn | Error

type sink = level -> string -> unit

let default_sink _level msg =
  prerr_string msg;
  prerr_newline ();
  flush stderr

let the_sink = ref default_sink
let quiet_flag = ref false
let mutex = Mutex.create ()

let set_sink s = the_sink := s
let reset_sink () = the_sink := default_sink
let set_quiet b = quiet_flag := b

let serialized sink level msg =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) (fun () -> sink level msg)

let emit level msg =
  match level with
  | Error -> serialized !the_sink Error msg
  | Warn -> if not !quiet_flag then serialized !the_sink Warn msg

let warn fmt = Printf.ksprintf (fun m -> emit Warn ("[warning] " ^ m)) fmt
let error fmt = Printf.ksprintf (fun m -> emit Error ("[error] " ^ m)) fmt

let warn_raw msg = emit Warn msg
let error_raw msg = emit Error msg
