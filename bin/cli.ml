(* Command-line pieces shared by the impact, fuzz and serve binaries. *)

open Cmdliner

(* A count, size, cap or window: zero and negative values are usage
   errors, rejected while parsing the command line (exit 124). *)
let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ ->
      Error (Printf.sprintf "invalid value '%s', expected a positive integer" s)
  in
  Arg.conv' (parse, Format.pp_print_int)

(* -j N: the lane count of the default domain pool, installed with
   [Placement.Pool.with_default] around the command (serve parses it
   but installs no pool). *)
let jobs ~default doc =
  Arg.(value & opt positive default & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* Enable the requested telemetry around [f]; the trace and metrics
   files are written even when [f] raises (a failing run is exactly when
   a profile is wanted). *)
let with_telemetry ~quiet ~trace_out ~metrics_out f =
  Obs.Log.set_quiet quiet;
  if trace_out <> None then Obs.Span.set_enabled true;
  if metrics_out <> None then Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Option.iter Obs.Span.write_chrome trace_out;
      Option.iter Obs.Metrics.write metrics_out)
    f

(* Deterministic exit codes around a cmdliner evaluation: cmdliner owns
   usage errors (2); structured diagnostics map each failure class to
   its own code (10..17 for the pipeline stages, 18 for the static
   linter — see [Ir.Diag.exit_code]); unknown names are usage errors. *)
let exit_with eval =
  try exit (eval ()) with
  | Ir.Diag.Fail d ->
    (* Already carries its "[error <stage>]" prefix. *)
    Obs.Log.error_raw (Ir.Diag.to_string d);
    exit (Ir.Diag.exit_code d)
  | Workloads.Registry.Unknown_benchmark name ->
    Obs.Log.error "unknown benchmark: %s (see `impact list')" name;
    exit 2
  | Experiments.Runner.Unknown_experiment id ->
    Obs.Log.error "unknown experiment: %s (see `impact list')" id;
    exit 2
  | Placement.Strategy.Unknown_strategy id ->
    Obs.Log.error "unknown strategy: %s (see `impact list')" id;
    exit 2
  | Failure msg ->
    Obs.Log.error "%s" msg;
    exit 2
