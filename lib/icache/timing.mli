(** Miss-penalty timing model (paper §4.2.1): interleaved memory
    delivering one 4-byte word per cycle after an initial latency, with
    blocking, streaming (load forwarding + early continuation), or
    streaming-over-partial-load refill disciplines. *)

type policy =
  | Blocking
  | Streaming
  | Streaming_partial

type model = { hit_cycles : int; mem_latency : int }

type t

val create : ?model:model -> policy -> t
val on_hit : t -> unit

val on_hits : t -> int -> unit
(** Account [n] hits at once (bulk path of the block-granular engine). *)

val on_miss :
  t ->
  words_per_block:int ->
  word_in_block:int ->
  run_words:int ->
  fetched_words:int ->
  unit

val effective_access_time : t -> float
(** Mean cycles per instruction fetch. *)
