(* fuzz — differential layout fuzzer for the placement pipeline.

   Generates N seeded random programs, pushes each through lowering,
   the full placement pipeline, every registered layout strategy and a
   cache simulation, and checks all pipeline invariants plus
   cross-strategy layout invariance.  Failing cases are shrunk to a
   minimal reproducer and reported with the generating seed; the exit
   code identifies the first failure's stage. *)

open Cmdliner

let count_arg =
  Arg.(
    value & opt int 200
    & info [ "n"; "count" ] ~docv:"N" ~doc:"Number of seeded programs.")

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"First seed; programs use consecutive seeds from here.")

let size_arg =
  Arg.(
    value & opt int 120
    & info [ "size" ] ~docv:"FUEL"
        ~doc:"Generator fuel per program (scales program size).")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "q"; "quiet" ]
        ~doc:"Suppress progress; print only failures and the summary.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Enable the metrics registry (seeds checked, failures, shrink \
           steps) and write its dump to $(docv) ($(b,-) = stderr).")

let jobs_arg =
  Cli.jobs
    ~default:(Domain.recommended_domain_count ())
    "Check seeds on $(docv) domains (default: the number of cores).  \
     Output is identical to $(b,-j 1)'s: detection fans out, shrinking \
     stays serial in seed order."

let run count first_seed size quiet metrics_out jobs =
  Obs.Log.set_quiet quiet;
  if metrics_out <> None then Obs.Metrics.set_enabled true;
  Printf.printf
    "fuzzing %d program(s) from seed %d (size %d) over strategies: %s\n%!"
    count first_seed size
    (String.concat " " (Placement.Strategy.ids ()));
  let log msg = if not quiet then Printf.printf "%s\n%!" msg in
  let failures =
    Fun.protect
      ~finally:(fun () -> Option.iter Obs.Metrics.write metrics_out)
      (fun () ->
        Placement.Pool.with_default jobs (fun () ->
            Experiments.Fuzz.run ~size ~log ~first_seed ~count ()))
  in
  match failures with
  | [] ->
    Printf.printf "ok: %d program(s) x %d strategies, no violations\n"
      count
      (List.length Placement.Strategy.all)
  | (f : Experiments.Fuzz.failure) :: _ as fs ->
    (* [log] already printed each failure unless --quiet. *)
    if quiet then
      List.iter
        (fun f -> print_string (Fmt.str "%a" Experiments.Fuzz.report_failure f))
        fs;
    Printf.eprintf "%d of %d seed(s) failed\n" (List.length fs) count;
    let code =
      match Ir.Diag.errors f.Experiments.Fuzz.diags with
      | d :: _ -> Ir.Diag.exit_code d
      | [] -> 1
    in
    exit code

let cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzer for the placement pipeline and layout \
             strategies")
    Term.(
      const run $ count_arg $ seed_arg $ size_arg $ quiet_arg
      $ metrics_out_arg $ jobs_arg)

let () = exit (Cmd.eval cmd)
