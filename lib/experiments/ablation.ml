(* E12: design-choice ablation (beyond the paper).

   The paper argues inlining and layout cooperate: inlining enlarges
   function bodies so trace selection and intra-function layout can do the
   heavy lifting, and removes inter-function conflicts.  This experiment
   separates the contributions at the 2KB/64B design point:

   - baseline:      original program, natural layout;
   - layout only:   trace selection + layout without inline expansion;
   - inline only:   inlined program, natural layout;
   - full pipeline: inlining + placement. *)

type row = {
  name : string;
  baseline : float;
  layout_only : float;
  inline_only : float;
  full : float;
}

let config = Icache.Config.make ~size:2048 ~block:64 ()

let compute ctx =
  Placement.Pool.map_default
    (fun e ->
      let miss map trace =
        (Context.simulate e config map trace).Sim.Driver.miss_ratio
      in
      let trace = Context.trace e in
      let original_trace = Context.original_trace e in
      let no_inline = Context.pipeline_noinline e in
      {
        name = Context.name e;
        baseline = miss (Context.original_map e) original_trace;
        layout_only =
          miss no_inline.Placement.Pipeline.optimized original_trace;
        inline_only = miss (Context.natural_map e) trace;
        full = miss (Context.optimized_map e) trace;
      })
    ctx

let table ctx =
  let rows =
    List.map
      (fun r ->
        [
          r.name;
          Report.Fmtutil.pct r.baseline;
          Report.Fmtutil.pct r.layout_only;
          Report.Fmtutil.pct r.inline_only;
          Report.Fmtutil.pct r.full;
        ])
      (compute ctx)
  in
  Report.Table.make
    ~title:
      "Ablation at 2KB/64B: miss ratio contribution of inline expansion \
       vs layout"
    ~header:[ "name"; "baseline"; "layout only"; "inline only"; "full" ]
    ~align:Report.Table.[ L; R; R; R; R ]
    rows
