(* Program I/O: input streams (consumed by the Getc intrinsic), output
   streams (filled by Putc), and integer program arguments.  These model
   the operating-system boundary: the paper's traces exclude kernel code,
   and correspondingly the intrinsics cost a single trap instruction. *)

type input = {
  label : string; (* human-readable description of the input *)
  streams : string list; (* input stream contents, index 0 first *)
  args : int list; (* integer program arguments *)
}

let max_streams = 8

let check_streams streams =
  let n = List.length streams in
  if n > max_streams then
    invalid_arg
      (Printf.sprintf "Io: %d input streams, at most %d are supported" n
         max_streams)

let input ?(label = "") ?(args = []) streams =
  check_streams streams;
  { label; streams; args }

type stream = { data : string; mutable pos : int }

type t = {
  inputs : stream array;
  outputs : Buffer.t array;
  args : int array;
}

let of_input (spec : input) =
  check_streams spec.streams;
  let streams = Array.of_list spec.streams in
  let inputs =
    Array.init max_streams (fun idx ->
        let data = if idx < Array.length streams then streams.(idx) else "" in
        { data; pos = 0 })
  in
  {
    inputs;
    outputs = Array.init max_streams (fun _ -> Buffer.create 64);
    args = Array.of_list spec.args;
  }

let getc t stream =
  if stream < 0 || stream >= max_streams then -1
  else begin
    let s = t.inputs.(stream) in
    if s.pos >= String.length s.data then -1
    else begin
      let c = Char.code s.data.[s.pos] in
      s.pos <- s.pos + 1;
      c
    end
  end

let putc t stream byte =
  if stream >= 0 && stream < max_streams then
    Buffer.add_char t.outputs.(stream) (Char.chr (byte land 0xff))

let stream_len t stream =
  if stream < 0 || stream >= max_streams then 0
  else String.length t.inputs.(stream).data

let arg t idx = if idx >= 0 && idx < Array.length t.args then t.args.(idx) else 0

let output t stream =
  if stream < 0 || stream >= max_streams then ""
  else Buffer.contents t.outputs.(stream)
