(* The five-step IMPACT-I instruction placement pipeline:
   profile -> inline -> trace selection -> function layout -> global
   layout, producing an address map for the optimized placement and the
   natural (unoptimized) baseline map for comparison. *)

open Ir

type config = { do_inline : bool (* disable to ablate the inlining step *) }

let default_config = { do_inline = true }

type t = {
  original : Prog.program;
  original_profile : Vm.Profile.t;
  program : Prog.program; (* after inline expansion *)
  profile : Vm.Profile.t; (* profile of [program] over the same inputs *)
  inline_report : Inline.report;
  selections : Trace_select.t array; (* per function of [program] *)
  layouts : Func_layout.t array;
  global : Global_layout.t;
  optimized : Address_map.t;
  natural : Address_map.t;
}

let run ?(config = default_config) (original : Prog.program)
    ~(inputs : Vm.Io.input list) : t =
  (* Step 0 (compiler hygiene): CFG cleanups before anything is profiled. *)
  let original =
    Obs.Span.with_ ~stage:"simplify" (fun () -> Simplify.program original)
  in
  (* Step 1: execution profiling of the original program. *)
  let original_profile =
    Obs.Span.with_ ~stage:"profile"
      ~attrs:[ ("program", "original") ]
      (fun () -> Vm.Profile.profile original inputs)
  in
  (* Step 2: inline expansion of the important call sites, then a second
     cleanup pass over the splices. *)
  let program, inline_report, inlined_profile =
    if config.do_inline then
      Obs.Span.with_ ~stage:"inline" (fun () ->
          Inline.expand ~profile:original_profile original ~inputs)
    else
      ( original,
        {
          Inline.sites_inlined = 0;
          insns_before = Prog.total_instr_count original;
          insns_after = Prog.total_instr_count original;
          rounds_used = 0;
        },
        Some original_profile )
  in
  let program =
    if config.do_inline then
      Obs.Span.with_ ~stage:"simplify"
        ~attrs:[ ("program", "inlined") ]
        (fun () -> Simplify.program program)
    else program
  in
  (* Report code growth against what actually ships. *)
  let inline_report =
    { inline_report with Inline.insns_after = Prog.total_instr_count program }
  in
  (* The layout steps need weights that match the transformed program's
     control graphs.  A profile already taken of an identical program
     (inlining and cleanup changed nothing) is that profile; otherwise
     re-profile on the same inputs. *)
  let profile =
    match inlined_profile with
    | Some p when p.Vm.Profile.prog.Prog.funcs = program.Prog.funcs -> p
    | _ ->
      Obs.Span.with_ ~stage:"profile"
        ~attrs:[ ("program", "inlined") ]
        (fun () -> Vm.Profile.profile program inputs)
  in
  (* Step 3: trace selection per function. *)
  let selections =
    Obs.Span.with_ ~stage:"trace-selection" (fun () ->
        Array.mapi
          (fun fid f ->
            Trace_select.select f (Weight.cfg_of_profile profile fid))
          program.Prog.funcs)
  in
  (* Step 4: function body layout. *)
  let layouts =
    Obs.Span.with_ ~stage:"func-layout" (fun () ->
        Array.mapi
          (fun fid f ->
            Func_layout.layout f (Weight.cfg_of_profile profile fid)
              selections.(fid))
          program.Prog.funcs)
  in
  (* Step 5: global layout over the weighted call graph. *)
  let global =
    Obs.Span.with_ ~stage:"global-layout" (fun () ->
        Global_layout.layout
          (Array.length program.Prog.funcs)
          ~entry:program.Prog.entry
          (Weight.call_of_profile profile))
  in
  let optimized, natural =
    Obs.Span.with_ ~stage:"address-map" (fun () ->
        ( Address_map.build program ~layouts ~order:global,
          Address_map.natural program ))
  in
  {
    original;
    original_profile;
    program;
    profile;
    inline_report;
    selections;
    layouts;
    global;
    optimized;
    natural;
  }

(* Address map of the (inlined, profiled) program under any registered
   layout strategy.  The IMPACT and natural maps the pipeline already
   built are returned as-is — [Strategy.impact] under a non-default
   pipeline config means "this pipeline's placement", and reusing the
   stored maps keeps them physically shared for memoization. *)
let map_of_profile (program : Prog.program) (profile : Vm.Profile.t)
    (s : Strategy.t) : Address_map.t =
  let layouts =
    Array.mapi
      (fun fid f -> s.Strategy.layout f (Weight.cfg_of_profile profile fid))
      program.Prog.funcs
  in
  let order =
    s.Strategy.global
      (Array.length program.Prog.funcs)
      ~entry:program.Prog.entry
      (Weight.call_of_profile profile)
  in
  Address_map.build program ~layouts ~order

let map_for (t : t) (s : Strategy.t) : Address_map.t =
  if s.Strategy.id = Strategy.impact.Strategy.id then t.optimized
  else if s.Strategy.id = Strategy.natural.Strategy.id then t.natural
  else
    Obs.Span.with_ ~stage:"strategy-layout"
      ~attrs:[ ("strategy", s.Strategy.id) ]
      (fun () -> map_of_profile t.program t.profile s)
