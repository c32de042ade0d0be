(* Block-stream capture.

   A program run is captured as a sequence of executed basic blocks
   (function id and label packed into one int).  The block sequence is
   layout-independent: replaying it against different address maps and
   cache configurations expands each block into its instruction-fetch
   addresses without re-running the interpreter. *)

open Ir

(* Packing: label in the low bits, function id above.  20 bits allow a
   million blocks per function, far beyond any workload here. *)
let label_bits = 20
let label_mask = (1 lsl label_bits) - 1
let pack fid label = (fid lsl label_bits) lor label
let unpack_fid code = code lsr label_bits
let unpack_label code = code land label_mask

exception Too_many_blocks of string

type sink = int -> Cfg.label -> unit

(* Stream the execution's block sequence into [sink] with no buffering:
   the push-based VM->consumer path the compressed store is built on. *)
let stream ?fuel (prog : Prog.program) (input : Vm.Io.input) ~(sink : sink) :
    Vm.Interp.result =
  Array.iter
    (fun (f : Prog.func) ->
      if Array.length f.blocks > label_mask then
        raise (Too_many_blocks f.name))
    prog.funcs;
  Vm.Interp.run ~block_sink:sink ?fuel prog input
