(** Greedy agglomerative merging, the optimizer shared by ext-TSP chain
    merging ({!Exttsp}) and call-chain clustering ({!C3_layout}).

    Items are integer ids.  The engine keeps the table of candidate
    pairs, caches each pair's best merge, and repeatedly applies the
    merge with the highest gain until no pair gains anything.  The
    caller only says what merging two ids would gain and how to apply
    it. *)

val epsilon : float
(** Gains closer than [epsilon] tie; a merge must gain more than it. *)

val best : ('m -> float) -> 'm list -> (float * 'm) option
(** [best gain candidates] is the first candidate with the highest
    [gain], if that gain exceeds {!epsilon}. *)

val run :
  counter:Obs.Metrics.counter ->
  pairs:((int -> int -> unit) -> unit) ->
  gain:(int -> int -> (float * 'm) option) ->
  merge:(int -> int -> 'm -> unit) ->
  unit
(** [run ~counter ~pairs ~gain ~merge] seeds the candidate pairs with
    every [connect a b] that [pairs connect] makes ([a <> b], in either
    order), then loops: among the live pairs [(a, b)], [a < b], it
    picks the one whose [gain a b] is highest — [None] never merges,
    gains within {!epsilon} go to the smaller pair — bumps [counter]
    and calls [merge a b m] with the chosen merge [m].  [a] survives
    and [b] is retired: [b]'s pairs are re-keyed onto [a], and every
    pair touching [a] or [b] has its gain recomputed.  Pairs are
    visited in [Hashtbl] order, which can decide between gains within
    {!epsilon}, so the table operations themselves are part of the
    result. *)

val distinct : ('a -> int) -> 'a list -> 'a list
(** [distinct id xs] keeps the first element of [xs] with each [id], in
    order. *)

val by_density :
  id:('a -> int) -> density:('a -> float) -> first:'a -> 'a list -> 'a list
(** [by_density ~id ~density ~first groups] is the emission order of
    merged groups: [first], then the other distinct groups of [groups]
    by decreasing [density], equal densities by increasing [id]. *)
