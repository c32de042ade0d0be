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
   [Placement.Pool.with_default] around the command. *)
let jobs ~default doc =
  Arg.(value & opt positive default & info [ "j"; "jobs" ] ~docv:"N" ~doc)
