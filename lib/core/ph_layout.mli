(** Pettis-Hansen style code positioning (PLDI 1990), as a comparison
    algorithm: bottom-up chain merging within functions and
    "closest is best" greedy procedure ordering globally.  Results reuse
    {!Func_layout.t} / {!Global_layout.t} so {!Address_map.build} applies
    unchanged. *)

open Ir

val layout : Prog.func -> Weight.cfg_weights -> Func_layout.t
(** Chain formation over arcs in decreasing weight; executed chains first
    (entry chain leading), never-executed chains at the bottom. *)

val global : int -> entry:int -> Weight.call_weights -> Global_layout.t
(** Greedy merging of the undirected weighted call pairs; the entry's
    group is emitted first. *)
