(** Miss-penalty timing model (paper §4.2.1): one-cycle hits and an
    interleaved memory delivering one 4-byte word per cycle after a
    10-cycle initial latency, with
    blocking, streaming (load forwarding + early continuation), or
    streaming-over-partial-load refill disciplines. *)

type policy =
  | Blocking
  | Streaming
  | Streaming_partial

type t

val create : policy -> t
val on_hit : t -> unit

val on_hits : t -> int -> unit
(** Account [n] hits at once (bulk path of the span-fused sweep). *)

val on_miss :
  t ->
  words_per_block:int ->
  word_in_block:int ->
  run_words:int ->
  fetched_words:int ->
  unit

val effective_access_time : t -> float
(** Mean cycles per instruction fetch. *)
