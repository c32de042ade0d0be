(** Seeded synthetic input generators — stand-ins for the paper's real
    program inputs (text files, C sources, makefiles, grammars). *)

val text : seed:int -> bytes:int -> string
(** Prose-like lines of lowercase words, exactly [bytes] long. *)

val mutate : seed:int -> noise_per_mille:int -> string -> string
(** Copy with per-byte corruption probability, for cmp's file pairs. *)

val c_source : seed:int -> lines:int -> string
(** C-like source with declarations, control statements, comments and
    [#define] lines. *)

val cpp_source_with_includes : seed:int -> lines:int -> string * string
(** (source, include library for stream 1): the full cccp diet —
    [#include], [#if]/[#elif] expressions, comments, literals, splices. *)

val makefile : seed:int -> targets:int -> string
(** Acyclic makefile-like rules with commands. *)

val statements : seed:int -> count:int -> string
(** Assignment and expression statements over variables for the yacc
    workload's full grammar; variables are used only after definition. *)

val tar_manifest : seed:int -> members:int -> string * string
(** (manifest of "name size" lines, concatenated member contents). *)

val tar_archive : seed:int -> members:int -> string * (string * int) list
(** (USTAR archive bytes matching the tar workload's create mode, member
    specs); input for its list/extract modes. *)

val compressible : seed:int -> bytes:int -> string
(** Repetitive payload so compress finds structure. *)

val lzw_compress : string -> string
(** OCaml-side LZW compressor matching the compress workload's encoding;
    generates inputs for its decompression mode (and test oracles). *)

val c_keywords : string array
