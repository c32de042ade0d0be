(** Plain-text table rendering for experiment output. *)

type align = L | R

type t

val make :
  title:string ->
  header:string list ->
  ?align:align list ->
  string list list ->
  t
(** Raises [Invalid_argument] when a row's width disagrees with the
    header.  Default alignment is right for every column. *)

val title : t -> string

val header : t -> string list

val rows : t -> string list list
(** Structured accessors, for machine-readable exports that must carry
    exactly the cells the text rendering prints. *)

val render : t -> string
