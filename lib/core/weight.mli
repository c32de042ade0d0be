(** Weighted-graph views consumed by the placement algorithms.

    The paper's step 1 produces a weighted call graph and per-function
    weighted control graphs; this module adapts {!Vm.Profile} data (or
    hand-built lists, in tests) to the interface the algorithms use. *)

open Ir

type cfg_weights = {
  func_weight : int;  (** times the function was entered *)
  block : Cfg.label -> int;
  arcs_out : Cfg.label -> (Cfg.label * int) list;
  arcs_in : Cfg.label -> (Cfg.label * int) list;
}

type call_weights = {
  pair : int -> int -> int;
      (** total dynamic calls caller->callee; self-calls weigh 0 *)
  callees : int -> int list;  (** statically called functions *)
  entries : int -> int;  (** times the function was entered *)
  size : int -> int;
      (** function byte size, consulted by layout algorithms that cap
          cluster sizes or score by byte distance *)
}

val cfg_of_profile : Vm.Profile.t -> int -> cfg_weights
val call_of_profile : Vm.Profile.t -> call_weights
