(* Repository benchmark entry point; run through perfbench/run.py, which
   builds it, from the repository root:

     main.exe --workload compile|tables|serve --seed N --seconds S --trace 0|1
     main.exe --regen-goldens

   The last line of standard output is the JSON result:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones, timed with spans and metrics off;
   with --trace 1 they are the per-layer ones of a separate traced run
   (see README.md). *)

open Util

let workload = ref ""
let seed = ref 1
let seconds = ref 12.0
let trace = ref 0
let regen = ref false
let serve_exe = ref "_build/default/bin/serve.exe"

let write path text = Out_channel.with_open_text path (fun oc -> output_string oc text)

let regen_goldens () =
  let results = Compile_wl.pass (Workloads.Rng.create 0) (Compile_wl.benches ()) in
  write Compile_wl.golden_file (String.concat "\n" (Compile_wl.golden_lines results) ^ "\n");
  let ctx = Tables_wl.setup () in
  let outcomes =
    Tables_wl.with_pool (fun () -> Tables_wl.pass (Workloads.Rng.create 0) ctx)
  in
  List.iter
    (fun (o : Experiments.Runner.outcome) ->
      write (Tables_wl.golden_path o.spec.id) (Tables_wl.render o))
    outcomes;
  let lines, fixture = Serve_wl.regen ~exe:!serve_exe in
  write Serve_wl.golden_file (String.concat "\n" lines ^ "\n");
  write "perfbench/golden/layout_response.json" (fixture ^ "\n");
  say "goldens written"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  compile, tables or serve");
      ("--seed", Arg.Set_int seed, "N  seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or traced per-layer (1) run");
      ("--serve-exe", Arg.Set_string serve_exe, "PATH  the layout service binary");
      ("--regen-goldens", Arg.Set regen, " rewrite perfbench/golden from this build");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !regen then regen_goldens ()
  else begin
    let seed = !seed and seconds = !seconds in
    let exe = !serve_exe in
    if !trace = 0 then begin
      let attempted, failed, metrics =
        match !workload with
        | "compile" -> Compile_wl.run ~seed ~seconds
        | "tables" -> Tables_wl.run ~seed ~seconds
        | "serve" -> Serve_wl.run ~exe ~seed ~seconds
        | w -> raise (Arg.Bad ("unknown workload " ^ w))
      in
      print_endline (result_line ~attempted ~failed metrics)
    end
    else begin
      let t = Layers.create () in
      let set = Layers.set t and add = Layers.add t in
      let attempted, failed =
        match !workload with
        | "compile" -> Compile_wl.run_traced ~seed ~seconds ~set ~add
        | "tables" -> Tables_wl.run_traced ~seed ~seconds ~set ~add
        | "serve" -> Serve_wl.run_traced ~exe ~seed ~seconds ~set ~add
        | w -> raise (Arg.Bad ("unknown workload " ^ w))
      in
      print_endline (result_line ~attempted ~failed (Layers.finish t))
    end
  end
