(** Numeric formatting shared by the experiment tables. *)

val pct : ?digits:int -> float -> string
(** [pct 0.027] is ["2.70%"]. *)

val pct0 : float -> string
(** [pct0 0.17] is ["17%"]. *)

val f1 : float -> string
val f2 : float -> string

val human : int -> string
(** ["11.7M"], ["2.2K"], … *)
