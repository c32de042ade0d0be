(** Word-granular reference simulator, the oracle {!Sim.Driver.simulate}
    is checked against: one {!Icache.Cache.access} and one timing update
    per instruction fetch, with its own run bookkeeping. *)

val run :
  Icache.Config.t -> Placement.Address_map.t -> Sim.Trace.t -> Sim.Driver.result
(** Replay the trace under the map into one configuration, word by
    word. *)

val results_equal : Sim.Driver.result -> Sim.Driver.result -> bool
(** Every count and every derived metric equal, bit for bit; the
    [config] field is not compared. *)
