(** Program I/O: input streams, output streams, and integer arguments —
    the operating-system boundary of the VM. *)

type input = {
  label : string;  (** human-readable description of the input *)
  streams : string list;  (** input stream contents, stream 0 first *)
  args : int list;  (** integer program arguments *)
}

val max_streams : int
(** Input and output streams per run (8). *)

val input : ?label:string -> ?args:int list -> string list -> input
(** Raises [Invalid_argument] when given more than {!max_streams}
    streams. *)

type t

val of_input : input -> t
(** Raises [Invalid_argument] when [input] has more than {!max_streams}
    streams. *)

val getc : t -> int -> int
(** Next byte of the stream, or [-1] at end / invalid stream. *)

val putc : t -> int -> int -> unit
val stream_len : t -> int -> int
val arg : t -> int -> int
val output : t -> int -> string
(** Everything written to the output stream so far. *)
