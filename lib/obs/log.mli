(** One log sink for progress/warning chatter.

    The default sink writes to stderr (stdout stays a pure table
    stream).  [set_quiet true] suppresses [Warn]; [Error]
    always reaches the sink.  The [_raw] entry points emit preformatted
    messages (e.g. [Ir.Diag.to_string]) without adding a prefix. *)

type level = Warn | Error
type sink = level -> string -> unit

val set_sink : sink -> unit
val reset_sink : unit -> unit
val set_quiet : bool -> unit

val warn : ('a, unit, string, unit) format4 -> 'a
(** Prefixed "[warning] "; suppressed under quiet. *)

val error : ('a, unit, string, unit) format4 -> 'a
(** Prefixed "[error] "; never suppressed. *)

val warn_raw : string -> unit
val error_raw : string -> unit
