(* Synthetic input generators.

   These stand in for the paper's real inputs (C sources, text files,
   makefiles, grammars): each generator produces byte streams with the
   statistical structure the corresponding workload's control flow feeds
   on — lines and words for text tools, identifiers/keywords/comments for
   the C-source consumers, rules for make.  All generators are seeded and
   deterministic. *)

let buf_add = Buffer.add_string

(* Plain prose-like text: lines of lowercase words. *)
let text ~seed ~bytes =
  let rng = Rng.create seed in
  let buf = Buffer.create bytes in
  while Buffer.length buf < bytes do
    let words = Rng.range rng 3 12 in
    for w = 0 to words - 1 do
      if w > 0 then Buffer.add_char buf ' ';
      buf_add buf (Rng.word rng 2 9)
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.sub buf 0 bytes

(* A copy of [base] with each byte independently corrupted with probability
   [noise] per mille — for cmp's similar/dissimilar file pairs. *)
let mutate ~seed ~noise_per_mille base =
  let rng = Rng.create seed in
  String.map
    (fun c ->
      if Rng.int rng 1000 < noise_per_mille then Rng.lowercase_letter rng
      else c)
    base

let c_keywords =
  [| "if"; "else"; "while"; "for"; "return"; "int"; "char"; "break";
     "continue"; "static"; "struct"; "switch"; "case"; "default"; "do" |]

(* C-like source text: declarations, control statements, expressions,
   comments, and occasional preprocessor lines.  Feeds cccp, lex, wc and
   compress. *)
let c_source ~seed ~lines =
  let rng = Rng.create seed in
  let buf = Buffer.create (lines * 32) in
  let ident () =
    let base = Rng.word rng 3 8 in
    if Rng.int rng 4 = 0 then base ^ string_of_int (Rng.int rng 100) else base
  in
  let expression () =
    let ops = [| " + "; " - "; " * "; " / "; " < "; " == " |] in
    let atom () =
      if Rng.bool rng then ident () else string_of_int (Rng.int rng 1000)
    in
    let n = Rng.range rng 1 3 in
    let b = Buffer.create 32 in
    buf_add b (atom ());
    for _ = 1 to n do
      buf_add b (Rng.pick rng ops);
      buf_add b (atom ())
    done;
    Buffer.contents b
  in
  for _ = 1 to lines do
    (match Rng.int rng 12 with
    | 0 -> buf_add buf (Printf.sprintf "#define %s %d" (String.uppercase_ascii (ident ())) (Rng.int rng 256))
    | 1 -> buf_add buf (Printf.sprintf "/* %s %s */" (ident ()) (ident ()))
    | 2 -> buf_add buf (Printf.sprintf "int %s = %s;" (ident ()) (expression ()))
    | 3 | 4 ->
      buf_add buf
        (Printf.sprintf "  %s (%s) {" (Rng.pick rng c_keywords) (expression ()))
    | 5 -> buf_add buf "  }"
    | 6 -> buf_add buf (Printf.sprintf "  return %s;" (expression ()))
    | 7 -> buf_add buf (Printf.sprintf "char %s[%d];" (ident ()) (Rng.int rng 128))
    | _ -> buf_add buf (Printf.sprintf "  %s = %s;" (ident ()) (expression ())));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* Full cccp diet: a source heavy in directives plus an include library
   (stream 1) of "%% name"-delimited sections.  Exercises #include,
   #if/#elif expressions over macros and defined(), comments spanning
   lines, string literals, and backslash splicing. *)
let cpp_source_with_includes ~seed ~lines =
  let rng = Rng.create seed in
  let include_names = [| "config"; "types"; "limits"; "proto"; "util" |] in
  (* The include library: each section defines a few macros and carries
     some substitutable text; later sections may include earlier ones. *)
  let library = Buffer.create 2048 in
  Array.iteri
    (fun idx name ->
      buf_add library (Printf.sprintf "%%%% %s\n" name);
      buf_add library
        (Printf.sprintf "#ifndef GUARD_%s\n#define GUARD_%s 1\n"
           (String.uppercase_ascii name)
           (String.uppercase_ascii name));
      if idx > 0 && Rng.bool rng then
        buf_add library
          (Printf.sprintf "#include \"%s\"\n" include_names.(Rng.int rng idx));
      for k = 0 to 2 + Rng.int rng 4 do
        buf_add library
          (Printf.sprintf "#define %s_%s%d %d\n"
             (String.uppercase_ascii name)
             (String.uppercase_ascii (Rng.word rng 2 4))
             k
             (Rng.int rng 4096))
      done;
      buf_add library
        (Printf.sprintf "extern int %s_init; /* from %s */\n" name name);
      buf_add library "#endif\n")
    include_names;
  let includes = Buffer.contents library in
  (* Macro names defined so far in the source, for #if/#undef/use. *)
  let macros = ref [ "__STDC__"; "__IMPACT__" ] in
  let nmacros = ref 0 in
  let fresh_macro () =
    let m =
      Printf.sprintf "M%s%d" (String.uppercase_ascii (Rng.word rng 2 5)) !nmacros
    in
    incr nmacros;
    macros := m :: !macros;
    if List.length !macros > 32 then
      macros := List.filteri (fun idx _ -> idx < 32) !macros;
    m
  in
  let some_macro () =
    match !macros with [] -> fresh_macro () | l -> Rng.pick_list rng l
  in
  let condition () =
    match Rng.int rng 5 with
    | 0 -> Printf.sprintf "defined(%s)" (some_macro ())
    | 1 -> Printf.sprintf "!defined %s" (some_macro ())
    | 2 -> Printf.sprintf "%s > %d" (some_macro ()) (Rng.int rng 2048)
    | 3 ->
      Printf.sprintf "defined(%s) && %s + %d < %d" (some_macro ())
        (some_macro ()) (Rng.int rng 100) (Rng.int rng 4096)
    | _ ->
      Printf.sprintf "(%s * 2 + 1) %% %d != %d" (some_macro ())
        (1 + Rng.int rng 7) (Rng.int rng 7)
  in
  let buf = Buffer.create (lines * 36) in
  let depth = ref 0 in
  let arm_open = ref [] in (* per level: may this level still take #elif? *)
  for _ = 1 to lines do
    (match Rng.int rng 20 with
    | 0 | 1 ->
      buf_add buf
        (Printf.sprintf "#define %s %d" (fresh_macro ()) (Rng.int rng 4096))
    | 2 ->
      buf_add buf
        (Printf.sprintf "#define %s (%s + %d)" (fresh_macro ()) (some_macro ())
           (Rng.int rng 64))
    | 3 -> buf_add buf (Printf.sprintf "#undef %s" (some_macro ()))
    | 4 when !depth < 4 ->
      incr depth;
      arm_open := true :: !arm_open;
      buf_add buf (Printf.sprintf "#if %s" (condition ()))
    | 5 when !depth < 4 ->
      incr depth;
      arm_open := true :: !arm_open;
      buf_add buf
        (Printf.sprintf "#%s %s"
           (if Rng.bool rng then "ifdef" else "ifndef")
           (some_macro ()))
    | 6 when !depth > 0 && List.hd !arm_open ->
      if Rng.bool rng then
        buf_add buf (Printf.sprintf "#elif %s" (condition ()))
      else begin
        arm_open := false :: List.tl !arm_open;
        buf_add buf "#else"
      end
    | 7 when !depth > 0 ->
      decr depth;
      arm_open := List.tl !arm_open;
      buf_add buf "#endif"
    | 8 ->
      buf_add buf
        (Printf.sprintf "#include \"%s\"" (Rng.pick rng include_names))
    | 9 ->
      buf_add buf
        (Printf.sprintf "/* %s %s" (Rng.word rng 3 7) (Rng.word rng 3 7));
      if Rng.bool rng then begin
        (* comment spanning two lines *)
        Buffer.add_char buf '\n';
        buf_add buf (Printf.sprintf "   %s */" (Rng.word rng 3 7))
      end
      else buf_add buf " */"
    | 10 ->
      buf_add buf
        (Printf.sprintf "  str = \"%s %s\"; /* literal */" (some_macro ())
           (Rng.word rng 2 6))
    | 11 ->
      (* backslash continuation *)
      buf_add buf
        (Printf.sprintf "  total = %s + \\\n      %s;" (some_macro ())
           (Rng.word rng 2 6))
    | _ ->
      let n = Rng.range rng 2 6 in
      buf_add buf "  x =";
      for _ = 1 to n do
        Buffer.add_char buf ' ';
        if Rng.int rng 3 = 0 then buf_add buf (some_macro ())
        else buf_add buf (Rng.word rng 2 7);
        buf_add buf " +"
      done;
      buf_add buf " 1;");
    Buffer.add_char buf '\n'
  done;
  for _ = 1 to !depth do
    buf_add buf "#endif\n"
  done;
  (Buffer.contents buf, includes)

(* Makefile-like rule set: variable definitions, targets, dependency
   lists, command lines using $(VAR), $@ and $<.  Dependencies only point
   at later-declared targets (or leaf "files"), keeping the graph acyclic
   the way real makefiles are. *)
let makefile ~seed ~targets =
  let rng = Rng.create seed in
  let buf = Buffer.create (targets * 56) in
  buf_add buf "CC = cc\n";
  buf_add buf "LD = $(CC) -link\n";
  buf_add buf (Printf.sprintf "CFLAGS = -O%d -w\n" (Rng.int rng 3));
  buf_add buf "ALLFLAGS = $(CFLAGS) -q\n";
  let names =
    Array.init targets (fun idx -> Printf.sprintf "t%d_%s" idx (Rng.word rng 3 6))
  in
  for idx = 0 to targets - 1 do
    buf_add buf names.(idx);
    Buffer.add_char buf ':';
    let ndeps = Rng.int rng (min 4 (targets - idx)) in
    for _ = 1 to ndeps do
      Buffer.add_char buf ' ';
      let dep = Rng.range rng (idx + 1) (targets - 1 + 4) in
      if dep < targets then buf_add buf names.(dep)
      else buf_add buf (Printf.sprintf "leaf%d.c" (dep - targets))
    done;
    Buffer.add_char buf '\n';
    let ncmds = Rng.range rng 1 2 in
    for k = 1 to ncmds do
      Buffer.add_char buf '\t';
      (match Rng.int rng 3 with
      | 0 -> buf_add buf "$(CC) $(ALLFLAGS) -c $< -o $@"
      | 1 when k = ncmds -> buf_add buf "$(LD) $@ -first $<"
      | _ ->
        buf_add buf
          (Printf.sprintf "$(CC) $(CFLAGS) -c %s.c -o %s.o" (Rng.word rng 3 6)
             (Rng.word rng 3 6)));
      Buffer.add_char buf '\n'
    done
  done;
  Buffer.contents buf

(* Statements for the yacc workload's richer grammar: a mix of assignments
   and expression statements over variables, numbers, parentheses and
   unary minus.  Variables are used only after they have been assigned. *)
let statements ~seed ~count =
  let rng = Rng.create seed in
  let buf = Buffer.create (count * 24) in
  let vars = ref [] in
  let binops =
    [| "+"; "+"; "-"; "-"; "*"; "*"; "/"; "%"; "<<"; ">>"; "&"; "|"; "^";
       "=="; "!="; "<"; "<="; ">"; ">="; "&&"; "||" |]
  in
  let rec expr depth =
    if depth = 0 || Rng.int rng 3 = 0 then begin
      match !vars with
      | v :: _ when Rng.int rng 3 = 0 ->
        let v = if Rng.bool rng then v else Rng.pick_list rng !vars in
        buf_add buf v
      | _ -> buf_add buf (string_of_int (Rng.range rng 1 999))
    end
    else begin
      (match Rng.int rng 8 with
      | 0 ->
        buf_add buf (Rng.pick rng [| "-"; "!"; "~" |]);
        Buffer.add_char buf '(';
        expr (depth - 1);
        Buffer.add_char buf ')'
      | 1 | 2 ->
        Buffer.add_char buf '(';
        expr (depth - 1);
        buf_add buf (Rng.pick rng binops);
        expr (depth - 1);
        Buffer.add_char buf ')'
      | _ ->
        expr (depth - 1);
        buf_add buf (Rng.pick rng binops);
        expr (depth - 1))
    end
  in
  (* A bounded name pool keeps the workload's symbol table from
     saturating no matter how many statements are generated. *)
  let pool =
    Array.init 96 (fun k -> Printf.sprintf "%s%d" (Rng.word rng 1 3) k)
  in
  for _ = 0 to count - 1 do
    if Rng.int rng 5 < 2 then begin
      (* assignment *)
      let name =
        if !vars <> [] && Rng.bool rng then Rng.pick_list rng !vars
        else begin
          let n = Rng.pick rng pool in
          if not (List.mem n !vars) then vars := n :: !vars;
          n
        end
      in
      buf_add buf name;
      Buffer.add_char buf '=';
      expr (Rng.range rng 1 3)
    end
    else expr (Rng.range rng 1 4);
    buf_add buf ";\n"
  done;
  Buffer.contents buf

(* tar archive description: a manifest of "name size" lines plus the
   concatenated member contents of exactly the promised sizes. *)
let tar_manifest ~seed ~members =
  let rng = Rng.create seed in
  let manifest = Buffer.create (members * 20) in
  let content = Buffer.create (members * 800) in
  for idx = 0 to members - 1 do
    let size = Rng.range rng 120 2200 in
    buf_add manifest (Printf.sprintf "%s%d.txt %d\n" (Rng.word rng 3 8) idx size);
    let chunk = text ~seed:(seed + (idx * 31) + 1) ~bytes:size in
    buf_add content chunk
  done;
  (Buffer.contents manifest, Buffer.contents content)

(* The DSL library's string hash (djb2 with a 31-bit mask), needed to
   mirror tar's pseudo mtimes. *)
let dsl_hash_string s m =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h * 33) + Char.code c) land 0x7fffffff) s;
  !h mod m

(* OCaml-side USTAR-style archive builder mirroring the tar workload's
   create mode byte for byte; generates inputs for its list/extract
   modes.  Returns the archive and the member specs. *)
let tar_archive ~seed ~members =
  let manifest, content = tar_manifest ~seed ~members in
  let specs =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ name; size ] -> Some (name, int_of_string size)
        | _ -> None)
      (String.split_on_char '\n' manifest)
  in
  let out = Buffer.create (members * 1024) in
  let content_pos = ref 0 in
  List.iter
    (fun (name, size) ->
      let hdr = Bytes.make 512 '\000' in
      let put_string off s = Bytes.blit_string s 0 hdr off (String.length s) in
      let put_octal off width value =
        let v = ref value in
        for k = width - 1 downto 0 do
          Bytes.set hdr (off + k) (Char.chr ((!v mod 8) + Char.code '0'));
          v := !v / 8
        done
      in
      put_string 0 name;
      put_string 100 "0000644";
      put_octal 124 11 size;
      put_octal 136 11 (dsl_hash_string name 100000);
      Bytes.set hdr 156 '0';
      put_string 257 "ustar";
      Bytes.fill hdr 148 8 ' ';
      let sum = ref 0 in
      Bytes.iter (fun c -> sum := !sum + Char.code c) hdr;
      put_octal 148 6 !sum;
      Bytes.set hdr 154 '\000';
      Bytes.set hdr 155 ' ';
      Buffer.add_bytes out hdr;
      Buffer.add_string out (String.sub content !content_pos size);
      content_pos := !content_pos + size;
      let pad = (512 - (size mod 512)) mod 512 in
      Buffer.add_string out (String.make pad '\000'))
    specs;
  Buffer.add_string out (String.make 1024 '\000');
  (Buffer.contents out, specs)

(* OCaml-side LZW compressor mirroring the compress workload's encoding:
   12-bit dictionary, 16-bit big-endian codes.  Used to generate inputs
   for the workload's decompression mode. *)
let lzw_compress input =
  let dict = Hashtbl.create 4096 in
  let next = ref 256 in
  let out = Buffer.create (String.length input) in
  let emit code =
    Buffer.add_char out (Char.chr (code lsr 8));
    Buffer.add_char out (Char.chr (code land 0xff))
  in
  if String.length input > 0 then begin
    let prefix = ref (Char.code input.[0]) in
    for k = 1 to String.length input - 1 do
      let c = Char.code input.[k] in
      let key = (!prefix * 256) + c in
      match Hashtbl.find_opt dict key with
      | Some code -> prefix := code
      | None ->
        emit !prefix;
        if !next < 4096 then begin
          Hashtbl.add dict key !next;
          incr next
        end;
        prefix := c
    done;
    emit !prefix
  end;
  Buffer.contents out

(* Binary-ish payload with repetition, so compress finds structure. *)
let compressible ~seed ~bytes =
  let rng = Rng.create seed in
  let vocab = Array.init 32 (fun _ -> Rng.word rng 2 6) in
  let buf = Buffer.create bytes in
  while Buffer.length buf < bytes do
    buf_add buf (Rng.pick rng vocab);
    if Rng.int rng 5 = 0 then Buffer.add_char buf '\n' else Buffer.add_char buf ' '
  done;
  Buffer.sub buf 0 bytes
