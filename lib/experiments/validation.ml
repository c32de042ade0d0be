(* Experiment-level invariant verifier: ties the placement-layer checks
   ([Placement.Validate]) to the sim layer.

   Beyond the per-stage invariants, the load-bearing cross-check here is
   layout invariance: a placement strategy may only move code, never
   change what executes.  Concretely, the recorded block trace expanded
   through every registered strategy's address map must yield the same
   dynamic instruction count, and a cache simulation over any of those
   maps must access exactly that many instructions.  A strategy that
   drops, duplicates or resizes blocks fails this check even when its
   map is internally consistent. *)

type level = Placement.Validate.level = Cheap | Full

(* One small, cheap cache configuration for the Full-level simulation
   cross-check; the geometry is irrelevant to the accessed-instruction
   count, so the smallest realistic one keeps the check fast. *)
let xcheck_config = Icache.Config.make ~size:512 ~block:16 ()

let strategy_maps e =
  List.map
    (fun (s : Placement.Strategy.t) -> (s, Context.strategy_map e s))
    Placement.Strategy.all

(* Dynamic-instruction-count invariance of the block trace across every
   registered strategy's map (plus the pipeline's own two). *)
let layout_invariance e : Ir.Diag.t list =
  let trace = Context.trace e in
  let reference = Sim.Trace.dyn_insns (Context.natural_map e) trace in
  List.concat_map
    (fun ((s : Placement.Strategy.t), map) ->
      let n = Sim.Trace.dyn_insns map trace in
      if n = reference then []
      else
        [
          Ir.Diag.make ~stage:Ir.Diag.Simulation
            ~strategy:s.Placement.Strategy.id
            "%s: layout changed the dynamic instruction count: %d under \
             this strategy vs %d under the natural layout"
            (Context.name e) n reference;
        ])
    (strategy_maps e)

(* Simulated accesses must equal the trace's dynamic instruction count:
   the simulator walks every fetch exactly once, whatever the map. *)
let simulation_cross_check e : Ir.Diag.t list =
  let trace = Context.trace e in
  List.concat_map
    (fun ((s : Placement.Strategy.t), map) ->
      let expected = Sim.Trace.dyn_insns map trace in
      let r = Context.simulate e xcheck_config map trace in
      if r.Sim.Driver.accesses = expected then []
      else
        [
          Ir.Diag.make ~stage:Ir.Diag.Simulation
            ~strategy:s.Placement.Strategy.id
            "%s: simulation accessed %d instructions but the trace holds %d"
            (Context.name e) r.Sim.Driver.accesses expected;
        ])
    (strategy_maps e)

(* Each pass gets a span of its own, inside the run's [validate] span. *)
let pass name f = Obs.Span.with_ ~stage:"validate" ~attrs:[ ("pass", name) ] f

let check_entry ?(level = Cheap) (e : Context.entry) : Ir.Diag.t list =
  let pipeline_diags =
    pass "pipeline" @@ fun () ->
    Placement.Validate.pipeline ~level (Context.pipeline e)
  in
  (* Per-strategy address maps.  [Context.strategy_map] substitutes the
     natural layout when a strategy raises (recording a warning); in
     that case the map no longer carries the strategy's metadata claims,
     so validate it as a plain map. *)
  let per_strategy =
    pass "maps" @@ fun () ->
    List.concat_map
      (fun ((s : Placement.Strategy.t), map) ->
        let p = Context.pipeline e in
        let claims =
          if Context.fell_back e s.Placement.Strategy.id then None
          else Some s
        in
        Placement.Validate.map ?strategy:claims
          ~program:p.Placement.Pipeline.program
          ~weights:(fun fid ->
            Placement.Weight.cfg_of_profile p.Placement.Pipeline.profile fid)
          map)
      (strategy_maps e)
  in
  let invariance = pass "invariance" @@ fun () -> layout_invariance e in
  let sim =
    match level with
    | Cheap -> []
    | Full -> pass "cross-check" @@ fun () -> simulation_cross_check e
  in
  let fallbacks = Context.warnings e in
  pipeline_diags @ per_strategy @ invariance @ sim @ fallbacks

let check ?level (t : Context.t) : Ir.Diag.t list =
  let level_name =
    match level with
    | Some Full -> "full"
    | Some Cheap | None -> "cheap"
  in
  Obs.Span.with_ ~stage:"validate"
    ~attrs:[ ("level", level_name) ]
    (fun () ->
      List.concat (Placement.Pool.map_default (check_entry ?level) t))
