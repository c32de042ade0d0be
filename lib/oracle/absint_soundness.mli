(** Differential soundness oracle of {!Analysis.Absint}: replays a
    recorded trace and checks every claim the abstract interpretation
    makes about it. *)

val check :
  ?configs:Icache.Config.t list ->
  strategy:string ->
  Analysis.Absint.program ->
  Placement.Address_map.t ->
  Sim.Trace.t ->
  Ir.Diag.t list
(** Replays the trace against a fresh cache per config (default: two
    small geometries that force conflicts on fuzz-sized programs,
    512B/16B direct-mapped and 2-way) and checks every
    claim: always-hit accesses never miss, always-miss accesses never
    hit, first-miss (scope, line) pairs miss at most once per tracked
    scope entry, the simulated miss total lands inside the certified
    interval, and the Must/May domains never contradict.  Violations
    come back as [Simulation]-stage error diags, tagged with
    [strategy]. *)
