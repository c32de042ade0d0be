(* Minimal JSON tree, emitter and parser.

   The telemetry layer emits three machine-readable artifacts (Chrome
   trace events, table-row reports, bench reports); keeping the JSON
   support in-tree avoids an external dependency and gives the test
   suite a parser to validate that every emitted file is well formed.
   The emitter escapes per RFC 8259; non-finite floats become [null]
   (JSON has no representation for them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------- emission ---------- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    (* Shortest representation that round-trips. *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_string buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        emit buf v)
      fields;
    Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 1024 in
  emit buf t;
  Buffer.contents buf

let to_channel oc t =
  output_string oc (to_string t);
  output_char oc '\n'

let to_file path t =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc t)

(* ---------- parsing ---------- *)

exception Parse_error of string

let fail pos msg = raise (Parse_error (Printf.sprintf "at %d: %s" pos msg))

(* Adversarial-input guards.  The parser recurses once per nesting
   level, so untrusted input could otherwise drive an unbounded stack
   (a "depth bomb" of [[[[...) or an unbounded amount of work (an
   oversized payload); both now fail as ordinary parse errors before
   any damage.  The defaults are far above anything the telemetry
   artifacts produce. *)
let default_max_depth = 512

let parse_exn ?(max_depth = default_max_depth) ?max_bytes (s : string) : t =
  let n = String.length s in
  (match max_bytes with
  | Some limit when n > limit ->
    raise
      (Parse_error
         (Printf.sprintf "input too large: %d bytes (limit %d)" n limit))
  | _ -> ());
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail !pos (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail !pos (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail !pos "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail !pos "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'n' -> Buffer.add_char buf '\n'
             | 'r' -> Buffer.add_char buf '\r'
             | 't' -> Buffer.add_char buf '\t'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'u' ->
               if !pos + 4 >= n then fail !pos "truncated \\u escape";
               let hex = String.sub s (!pos + 1) 4 in
               let code =
                 try int_of_string ("0x" ^ hex)
                 with _ -> fail !pos "bad \\u escape"
               in
               (* ASCII range decodes exactly; anything wider is replaced
                  (the emitter only produces \u for control chars). *)
               if code < 0x80 then Buffer.add_char buf (Char.chr code)
               else Buffer.add_char buf '?';
               pos := !pos + 4
             | c -> fail !pos (Printf.sprintf "bad escape \\%c" c));
          advance ();
          go ()
        | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail start (Printf.sprintf "bad number %S" tok))
  in
  let rec parse_value depth =
    skip_ws ();
    if depth > max_depth then
      fail !pos (Printf.sprintf "nesting deeper than %d" max_depth);
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value (depth + 1) ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value (depth + 1) :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some c -> fail !pos (Printf.sprintf "unexpected %C" c)
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail !pos "trailing garbage";
  v

let parse ?max_depth ?max_bytes s =
  try Ok (parse_exn ?max_depth ?max_bytes s) with Parse_error msg -> Error msg

let of_file path =
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse contents

(* ---------- accessors (for tests and validators) ---------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None
