(** Deterministic pseudo-random generator (splitmix64) for reproducible
    synthetic inputs. *)

type t

val create : int -> t
val int : t -> int -> int
(** Uniform in [0, bound); raises on non-positive bound. *)

val bool : t -> bool
val range : t -> int -> int -> int
(** Uniform in [lo, hi] inclusive. *)

val pick : t -> 'a array -> 'a
val pick_list : t -> 'a list -> 'a
val lowercase_letter : t -> char
val word : t -> int -> int -> string
