(** The per-block span walk: the reference for {!Sim.Trace.program} and
    {!Sim.Trace.iter_spans}.  It maps every executed block through the
    address map, with no fold and no seam rule. *)

type t

val create : Placement.Address_map.t -> (int -> int -> unit) -> t
(** A walker that calls [f addr words] once per maximal
    address-contiguous span of the blocks it is given: a block extends
    the open span when it starts at the span's end, and zero-word
    blocks are skipped without breaking a span. *)

val block : t -> int -> Ir.Cfg.label -> unit
(** Feed the next executed block [(fid, label)]. *)

val finish : t -> unit
(** Emit the open span, if any. *)

val iter : Placement.Address_map.t -> (int -> int -> unit) -> Sim.Trace.t -> unit
(** [iter map f trace] walks the trace's decoded blocks. *)
