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

val call_pairs : int -> call_weights -> (int * int, int) Hashtbl.t
(** [call_pairs nfuncs w] maps each unordered pair [(f, g)], [f < g], of
    functions joined by a weighted static call edge to the calls between
    them both ways, [w.pair f g + w.pair g f] (calls only run along
    static edges).  Pettis-Hansen and C3 share it; C3 iterates it, so
    its insertion order (callers in fid order, each in [w.callees]
    order) is part of C3's result. *)
