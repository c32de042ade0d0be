(** The trace store: every recorded execution is held as one
    run-length/delta-compressed {!Ctrace.t}, born compressed as the VM
    streams its blocks into the builder. *)

open Ir

type t = Ctrace.t

val record : ?fuel:int -> Prog.program -> Vm.Io.input -> t
(** Execute and capture ({!Ctrace.record}).  Updates the [trace.*] gauges
    when metrics are enabled. *)

val result : t -> Vm.Interp.result
val dyn_blocks : t -> int

val dyn_insns : Placement.Address_map.t -> t -> int
(** Dynamic instruction fetches under the given address map (accounts for
    code scaling). *)

val iter_blocks : (int -> Cfg.label -> unit) -> t -> unit
(** Every executed block as [(fid, label)], in execution order. *)

type stats = {
  st_runs : int;  (** maximal sequential-code runs *)
  st_blocks : int;
  st_raw_bytes : int;  (** plain code-vector footprint (8 bytes/block) *)
  st_stored_bytes : int;  (** bytes the compressed store actually holds *)
}

val stats : t -> stats
