(* Workload correctness: each benchmark's output is checked against an
   independent OCaml oracle on shared inputs. *)

let run_bench ?(args = []) name streams =
  let b = Workloads.Registry.find name in
  let p = Workloads.Bench.program b in
  Ir.Check.program p;
  Vm.Interp.run p (Vm.Io.input ~args streams)

let out r = Vm.Io.output r.Vm.Interp.io 0

let wc_oracle s =
  let lines = ref 0 and words = ref 0 and chars = ref 0 in
  let in_word = ref false in
  String.iter
    (fun c ->
      incr chars;
      if c = '\n' then incr lines;
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then in_word := false
      else if not !in_word then begin
        in_word := true;
        incr words
      end)
    s;
  (!lines, !words, !chars)

let wc () =
  let input = Workloads.Inputs.text ~seed:5 ~bytes:5000 in
  let lines, words, chars = wc_oracle input in
  let r = run_bench "wc" [ input ] in
  Alcotest.(check string) "wc output"
    (Printf.sprintf "%d %d %d\n" lines words chars)
    (out r);
  Alcotest.(check int) "returns lines" lines r.Vm.Interp.return_value;
  (* option mask selects outputs; 8 adds the longest line length *)
  let lines2 = [ "short"; "a much longer line here"; "mid line" ] in
  let text = String.concat "\n" lines2 ^ "\n" in
  let maxline =
    List.fold_left (fun acc l -> max acc (String.length l)) 0 lines2
  in
  let r2 = run_bench "wc" ~args:[ 9 ] [ text ] in
  Alcotest.(check string) "lines + longest"
    (Printf.sprintf "3 %d\n" maxline)
    (out r2);
  let r3 = run_bench "wc" ~args:[ 2 ] [ text ] in
  Alcotest.(check string) "words only" "8\n" (out r3)

let cmp () =
  let base = Workloads.Inputs.text ~seed:9 ~bytes:3000 in
  let copy = Workloads.Inputs.mutate ~seed:10 ~noise_per_mille:30 base in
  let diffs = ref 0 and first = ref (-1) in
  String.iteri
    (fun idx c ->
      if c <> copy.[idx] then begin
        incr diffs;
        if !first < 0 then first := idx
      end)
    base;
  let r = run_bench "cmp" [ base; copy ] in
  Alcotest.(check int) "diff count" !diffs r.Vm.Interp.return_value;
  if !diffs > 0 then
    Alcotest.(check bool) "first offset reported" true
      (let prefix = Printf.sprintf "differ: %d " !first in
       String.length (out r) >= String.length prefix
       && String.sub (out r) 0 (String.length prefix) = prefix);
  (* Identical inputs: no differences. *)
  let r2 = run_bench "cmp" [ base; base ] in
  Alcotest.(check int) "identical files" 0 r2.Vm.Interp.return_value;
  Alcotest.(check string) "just the count" "0\n" (out r2);
  (* -l mode: every differing byte as "pos octal-a octal-b" (1-based). *)
  let a = "abcdef" and b = "abXdeY" in
  let r3 = run_bench "cmp" ~args:[ 1 ] [ a; b ] in
  Alcotest.(check string) "-l output"
    (Printf.sprintf "3 %03o %03o\n6 %03o %03o\n2\n" (Char.code 'c')
       (Char.code 'X') (Char.code 'f') (Char.code 'Y'))
    (out r3)

let tee () =
  let input = Workloads.Inputs.text ~seed:11 ~bytes:2000 in
  let r = run_bench "tee" [ input ] in
  Alcotest.(check int) "byte count" (String.length input)
    r.Vm.Interp.return_value;
  Alcotest.(check string) "stream 1 copy" input (Vm.Io.output r.Vm.Interp.io 1);
  Alcotest.(check string) "stream 2 copy" input (Vm.Io.output r.Vm.Interp.io 2)

(* Oracle for the K&R matcher (with character classes) used by grep,
   mirrored over string indexes. *)
let elem_len re k =
  if re.[k] <> '[' then 1
  else begin
    let n = ref 1 in
    if k + !n < String.length re && re.[k + !n] = '^' then incr n;
    if k + !n < String.length re && re.[k + !n] = ']' then incr n;
    while k + !n < String.length re && re.[k + !n] <> ']' do
      incr n
    done;
    if k + !n < String.length re && re.[k + !n] = ']' then incr n;
    !n
  end

let match_one re k c =
  match c with
  | None -> false
  | Some c ->
    if re.[k] = '.' then true
    else if re.[k] <> '[' then re.[k] = c
    else begin
      let p = ref (k + 1) in
      let negate = re.[!p] = '^' in
      if negate then incr p;
      let hit = ref false in
      let first = ref true in
      while
        !p < String.length re && re.[!p] <> '\000'
        && (re.[!p] <> ']' || !first)
      do
        first := false;
        if
          !p + 2 < String.length re
          && re.[!p + 1] = '-'
          && re.[!p + 2] <> ']'
        then begin
          if c >= re.[!p] && c <= re.[!p + 2] then hit := true;
          p := !p + 3
        end
        else begin
          if re.[!p] = c then hit := true;
          incr p
        end
      done;
      if negate then not !hit else !hit
    end

let char_at s k = if k < String.length s then Some s.[k] else None

let rec match_here re k text t =
  if k >= String.length re then true
  else begin
    let el = elem_len re k in
    if k + el < String.length re && re.[k + el] = '*' then
      match_star re k (k + el + 1) text t
    else if re.[k] = '$' && k + 1 = String.length re then
      t = String.length text
    else if match_one re k (char_at text t) then
      match_here re (k + el) text (t + 1)
    else false
  end

and match_star re elem rest text t =
  let rec go t =
    if match_here re rest text t then true
    else if match_one re elem (char_at text t) then go (t + 1)
    else false
  in
  go t

let match_pattern re text =
  if re <> "" && re.[0] = '^' then match_here re 1 text 0
  else begin
    let rec go t =
      match_here re 0 text t || if t < String.length text then go (t + 1) else false
    in
    go 0
  end

let grep () =
  List.iter
    (fun pattern ->
      let text = Workloads.Inputs.text ~seed:12 ~bytes:4000 in
      let lines = String.split_on_char '\n' text in
      let expected = List.filter (fun l -> l <> "" && match_pattern pattern l) lines in
      let r = run_bench "grep" [ text; pattern ^ "\n" ] in
      Alcotest.(check int)
        ("match count for " ^ pattern)
        (List.length expected) r.Vm.Interp.return_value;
      Alcotest.(check string)
        ("matched lines for " ^ pattern)
        (String.concat "" (List.map (fun l -> l ^ "\n") expected))
        (out r))
    [ "the"; "a.c"; "^qu"; "ing$"; "xy*z"; "zzz"; "[aeiou][mnr]";
      "[^a-m]x*[yz]"; "[a-c]*d"; "q[^u]" ]

let grep_options () =
  let text = "Apple pie\nbanana split\nCherry cake\napple strudel\n" in
  (* -i: case-insensitive *)
  let r = run_bench "grep" ~args:[ 4 ] [ text; "apple\n" ] in
  Alcotest.(check int) "-i finds both" 2 r.Vm.Interp.return_value;
  Alcotest.(check string) "-i prints originals" "Apple pie\napple strudel\n"
    (out r);
  (* -v: invert ("Apple pie" is the only line without a lowercase 'a') *)
  let r2 = run_bench "grep" ~args:[ 1 ] [ text; "a\n" ] in
  Alcotest.(check string) "-v" "Apple pie\n" (out r2);
  (* -c: count only *)
  let r3 = run_bench "grep" ~args:[ 2 ] [ text; "an\n" ] in
  Alcotest.(check string) "-c output" "1\n" (out r3);
  (* -n: line numbers *)
  let r4 = run_bench "grep" ~args:[ 8 ] [ text; "^a\n" ] in
  Alcotest.(check string) "-n output" "4:apple strudel\n" (out r4);
  (* multiple patterns = alternation *)
  let r5 = run_bench "grep" [ text; "pie\ncake\n" ] in
  Alcotest.(check string) "multi-pattern" "Apple pie\nCherry cake\n" (out r5)

(* LZW decoder oracle: rebuild the dictionary from the emitted 12-bit
   codes (2 bytes each, big-endian) and compare with the input. *)
let lzw_decode codes =
  let dict = Hashtbl.create 4096 in
  for c = 0 to 255 do
    Hashtbl.add dict c (String.make 1 (Char.chr c))
  done;
  let next = ref 256 in
  let buf = Buffer.create 1024 in
  let prev = ref None in
  List.iter
    (fun code ->
      let entry =
        match Hashtbl.find_opt dict code with
        | Some s -> s
        | None -> (
          (* The classic KwKwK case. *)
          match !prev with
          | Some p -> p ^ String.make 1 p.[0]
          | None -> Alcotest.fail "bad first code")
      in
      Buffer.add_string buf entry;
      (match !prev with
      | Some p when !next < 4096 ->
        Hashtbl.add dict !next (p ^ String.make 1 entry.[0]);
        incr next
      | _ -> ());
      prev := Some entry)
    codes;
  Buffer.contents buf

let compress () =
  let input = Workloads.Inputs.compressible ~seed:13 ~bytes:6000 in
  let r = run_bench "compress" [ input ] in
  let emitted = out r in
  Alcotest.(check int) "two bytes per code"
    0
    (String.length emitted mod 2);
  let codes =
    List.init
      (String.length emitted / 2)
      (fun k ->
        (Char.code emitted.[2 * k] lsl 8) lor Char.code emitted.[(2 * k) + 1])
  in
  Alcotest.(check int) "code count returned" (List.length codes)
    r.Vm.Interp.return_value;
  Alcotest.(check bool) "actually compresses" true
    (2 * List.length codes < String.length input);
  Alcotest.(check string) "round trip" input (lzw_decode codes);
  (* The OCaml mirror compressor produces the identical code stream. *)
  Alcotest.(check string) "mirror compressor agrees"
    (Workloads.Inputs.lzw_compress input)
    emitted

let decompress () =
  (* The workload's decompression mode inverts the OCaml compressor,
     including inputs that trigger the KwKwK case. *)
  List.iter
    (fun original ->
      let compressed = Workloads.Inputs.lzw_compress original in
      let r = run_bench "compress" ~args:[ 1 ] [ compressed ] in
      Alcotest.(check string) "decompressed" original (out r);
      Alcotest.(check int) "codes consumed"
        (String.length compressed / 2)
        r.Vm.Interp.return_value)
    [
      Workloads.Inputs.compressible ~seed:21 ~bytes:5000;
      "aaaaaaaaaaaa"; (* KwKwK *)
      "ababababababab";
      Workloads.Inputs.text ~seed:22 ~bytes:3000;
    ]

let cccp () =
  let input =
    String.concat "\n"
      [
        "#define PI 314";
        "#define E 271";
        "x = PI + E;";
        "#undef E";
        "y = PI + E;";
        "#ifdef PI";
        "z = PI;";
        "#else";
        "z = 0;";
        "#endif";
        "#ifndef PI";
        "w = 1;";
        "#endif";
        "#define PI 999";
        "q = PI;";
        "";
      ]
  in
  let r = run_bench "cccp" [ input; "" ] in
  Alcotest.(check string) "macro substitution"
    "x = 314 + 271;\ny = 314 + E;\nz = 314;\nq = 999;\n" (out r)

let cccp_advanced () =
  let check name source includes expected =
    let r = run_bench "cccp" [ source; includes ] in
    Alcotest.(check string) name expected (out r)
  in
  (* #if expression evaluator: precedence, defined(), elif chains. *)
  check "if expressions"
    "#define A 6\n#if A * 2 == 12 && defined(A)\nok1\n#endif\n\
     #if A < 3 || A % 4 == 2\nok2\n#endif\n\
     #if !defined(B) && (A | 1) == 7\nok3\n#endif\n\
     #if A >> 1 == 3 && A - 7 == -1\nok4\n#endif\n" ""
    "ok1\nok2\nok3\nok4\n";
  check "elif chain picks one branch"
    "#define V 2\n#if V == 1\na\n#elif V == 2\nb\n#elif V == 2\nc\n#else\nd\n#endif\n"
    "" "b\n";
  check "nested conditionals"
    "#if 1\n#if 0\nx\n#else\ny\n#endif\n#else\n#if 1\nz\n#endif\n#endif\n" ""
    "y\n";
  (* includes, include guards, nesting *)
  check "include with guard"
    "#include \"cfg\"\n#include \"cfg\"\nuse LIM\n"
    "%% cfg\n#ifndef GUARD\n#define GUARD 1\n#define LIM 42\nfrom cfg\n#endif\n"
    "from cfg\nuse 42\n";
  check "nested include"
    "#include \"outer\"\nEND INNER_X\n"
    "%% inner\n#define INNER_X 7\n%% outer\n#include \"inner\"\nouter sees INNER_X\n"
    "outer sees 7\nEND 7\n";
  (* recursive macro expansion with depth limit *)
  check "recursive expansion"
    "#define ONE 1\n#define TWO (ONE + ONE)\n#define FOUR (TWO * TWO)\nFOUR\n"
    "" "((1 + 1) * (1 + 1))\n";
  check "self-referential macro stops at depth limit"
    "#define LOOP LOOP\nLOOP stop\n" "" "LOOP stop\n";
  (* comments, literals, splices *)
  check "comment spanning lines swallowed"
    "a /* one\n two */ b\n" "" "a   b\n";
  check "string literal untouched"
    "#define A 1\ns = \"A /* x */\"; A\n" "" "s = \"A /* x */\"; 1\n";
  check "backslash splice" "ab\\\ncd\n" "" "abcd\n";
  (* builtins *)
  check "builtin macros defined"
    "#ifdef __STDC__\nstd __IMPACT__\n#endif\n" "" "std 1989\n"

let lex () =
  let input = "int x = 42; /* a comment */ if (x >= 10) { y = \"str\"; } 7abc" in
  let r = run_bench "lex" [ input ] in
  (* tokens: int(kw) x = 42 ; comment if(kw) ( x >= 10 ) { y = "str" ; }
     7abc — 3 idents, 2 keywords, 3 numbers (7abc scans as a number), 1
     string, 1 comment, 9 operators, 19 tokens, 0 newlines; no char
     literals / hex / octal / floats.  Then the top identifiers. *)
  Alcotest.(check string) "token counts" "0 3 2 3 1 1 9 19 0 0 0 0 \nx 2\ny 1\n"
    (out r)

let lex_extended () =
  (* hex/octal/float classification, char literals, escapes, // comments *)
  let input =
    "c = 'x'; e = '\\n'; h = 0xFF; o = 017; f = 3.25; // line\ns = \"a\\\"b\";\n"
  in
  let r = run_bench "lex" [ input ] in
  (* tokens: c = 'x' ; e = '\n' ; h = 0xFF ; o = 017 ; f = 3.25 ; comment
     s = "a\"b" ; -> idents c,e,h,o,f,s = 6; numbers 3 (hex, octal,
     float); strings 1; comments 1; chars 2; ops: = and ; pairs = 12;
     total 25; lines 2 *)
  Alcotest.(check string) "extended counts"
    "2 6 0 3 1 1 12 25 2 1 1 1 \nc 1\ne 1\nf 1\nh 1\no 1\n" (out r)

let make_bench () =
  let input =
    String.concat "\n"
      [
        "app: lib.o util.o";
        "\tcc -o app lib.o util.o";
        "lib.o: lib.c";
        "\tcc -c lib.c";
        "util.o: util.c";
        "\tcc -c util.c";
        "";
      ]
  in
  let r = run_bench "make" [ input ] in
  (* Deterministic given the hash function; just require sane structure:
     rebuilt count is between 0 and 3 and every printed line is one of the
     commands. *)
  Alcotest.(check bool) "rebuilt count in range" true
    (r.Vm.Interp.return_value >= 0 && r.Vm.Interp.return_value <= 3);
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (out r))
  in
  let commands =
    [ "cc -o app lib.o util.o"; "cc -c lib.c"; "cc -c util.c";
      string_of_int r.Vm.Interp.return_value ]
  in
  List.iter
    (fun l ->
      Alcotest.(check bool) ("line is a command: " ^ l) true
        (List.mem l commands))
    lines

let make_variables () =
  (* Force a rebuild deterministically: a dependency on an unknown leaf
     whose hash time exceeds the target's is not guaranteed, so instead
     give the target a dependency chain and check expansion only if the
     command ran; to make it deterministic we rely on expansion in the
     dependency list, which always happens at parse time. *)
  let input =
    String.concat "\n"
      [
        "CC = mycc";
        "OPT = -O2";
        "FLAGS = $(OPT) -g";
        "top: $(CC).o";
        "\t$(CC) $(FLAGS) $< -o $@";
        "";
      ]
  in
  let r = run_bench "make" [ input ] in
  let output = out r in
  (* The dependency list "$(CC).o" must have expanded to "mycc.o": if the
     target rebuilt, the command line shows full expansion including
     automatic variables. *)
  if r.Vm.Interp.return_value = 1 then
    Alcotest.(check string) "expanded command"
      "mycc -O2 -g mycc.o -o top\n1\n" output
  else Alcotest.(check string) "no rebuild" "0\n" output

let tar () =
  let manifest, content = Workloads.Inputs.tar_manifest ~seed:14 ~members:5 in
  let r = run_bench "tar" [ manifest; content ] in
  Alcotest.(check int) "member count" 5 r.Vm.Interp.return_value;
  let archive = out r in
  (* Strip the trailing report line the program prints after the
     archive. *)
  let archive = String.sub archive 0 (String.length archive - 2) in
  Alcotest.(check int) "archive is whole blocks" 0 (String.length archive mod 512);
  (* Parse and verify headers against the manifest. *)
  let specs =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ name; size ] -> Some (name, int_of_string size)
        | _ -> None)
      (String.split_on_char '\n' manifest)
  in
  let pos = ref 0 in
  let content_pos = ref 0 in
  List.iter
    (fun (name, size) ->
      let hdr = String.sub archive !pos 512 in
      let upto_nul s =
        match String.index_opt s '\000' with
        | Some k -> String.sub s 0 k
        | None -> s
      in
      Alcotest.(check string) "member name" name (upto_nul (String.sub hdr 0 100));
      let octal = String.sub hdr 124 11 in
      Alcotest.(check int) "size field" size (int_of_string ("0o" ^ octal));
      Alcotest.(check string) "magic" "ustar" (upto_nul (String.sub hdr 257 6));
      (* Checksum: bytes of the header with the checksum field as spaces. *)
      let sum = ref 0 in
      String.iteri
        (fun idx c ->
          let c = if idx >= 148 && idx < 156 then ' ' else c in
          sum := !sum + Char.code c)
        hdr;
      Alcotest.(check int) "checksum" !sum
        (int_of_string ("0o" ^ String.sub hdr 148 6));
      (* Content. *)
      let data = String.sub archive (!pos + 512) size in
      Alcotest.(check string) "member content"
        (String.sub content !content_pos size)
        data;
      content_pos := !content_pos + size;
      pos := !pos + 512 + ((size + 511) / 512 * 512))
    specs;
  (* Two zero blocks close the archive. *)
  Alcotest.(check int) "end-of-archive blocks" (!pos + 1024)
    (String.length archive);
  String.iter
    (fun c -> if c <> '\000' then Alcotest.fail "non-zero trailer")
    (String.sub archive !pos 1024)

(* Oracle mirroring the yacc workload's semantics: C-truncating division,
   division by zero yields 0, and 32-bit wraparound (the parser's value
   stack lives in 32-bit memory words, like a C int). *)
let wrap32 x = Int32.to_int (Int32.of_int x)

(* Arithmetic [expr ;] statements over the yacc grammar's operator
   subset: numbers, + - * / and parentheses. *)
let expressions ~seed ~count =
  let rng = Workloads.Rng.create seed in
  let buf = Buffer.create (count * 24) in
  let rec expr depth =
    if depth = 0 || Workloads.Rng.int rng 3 = 0 then
      Buffer.add_string buf (string_of_int (Workloads.Rng.range rng 1 999))
    else begin
      let parens = Workloads.Rng.int rng 3 = 0 in
      if parens then Buffer.add_char buf '(';
      expr (depth - 1);
      Buffer.add_string buf (Workloads.Rng.pick rng [| "+"; "-"; "*"; "/" |]);
      expr (depth - 1);
      if parens then Buffer.add_char buf ')'
    end
  in
  for _ = 1 to count do
    expr (Workloads.Rng.range rng 1 4);
    Buffer.add_string buf ";\n"
  done;
  Buffer.contents buf

let yacc () =
  let input = expressions ~seed:15 ~count:120 in
  (* Evaluate each statement with a tiny recursive-descent parser. *)
  let eval_stmt s =
    let pos = ref 0 in
    let peek () = if !pos < String.length s then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec factor () =
      match peek () with
      | Some '(' ->
        advance ();
        let v = expr () in
        advance () (* ')' *);
        v
      | Some c when c >= '0' && c <= '9' ->
        let n = ref 0 in
        let rec digits () =
          match peek () with
          | Some c when c >= '0' && c <= '9' ->
            n := (!n * 10) + (Char.code c - 48);
            advance ();
            digits ()
          | _ -> ()
        in
        digits ();
        !n
      | _ -> Alcotest.fail ("bad factor in " ^ s)
    and term () =
      let rec go acc =
        match peek () with
        | Some '*' ->
          advance ();
          go (wrap32 (acc * factor ()))
        | Some '/' ->
          advance ();
          let d = factor () in
          go (wrap32 (if d = 0 then 0 else acc / d))
        | _ -> acc
      in
      go (factor ())
    and expr () =
      let rec go acc =
        match peek () with
        | Some '+' ->
          advance ();
          go (wrap32 (acc + term ()))
        | Some '-' ->
          advance ();
          go (wrap32 (acc - term ()))
        | _ -> acc
      in
      go (term ())
    in
    expr ()
  in
  let stmts =
    List.filter (fun s -> s <> "")
      (List.map String.trim (String.split_on_char ';' (String.concat ""
        (String.split_on_char '\n' input))))
  in
  let expected =
    String.concat ""
      (List.map (fun s -> string_of_int (eval_stmt s) ^ "\n") stmts)
    ^ Printf.sprintf "%d 0\n" (List.length stmts)
  in
  let r = run_bench "yacc" [ input ] in
  Alcotest.(check string) "values" expected (out r);
  Alcotest.(check int) "all accepted" (List.length stmts)
    r.Vm.Interp.return_value

let tar_list_extract () =
  let archive, specs = Workloads.Inputs.tar_archive ~seed:31 ~members:6 in
  (* list mode: every member with a verified checksum *)
  let r = run_bench "tar" ~args:[ 1 ] [ ""; archive ] in
  Alcotest.(check int) "member count" 6 r.Vm.Interp.return_value;
  let expected =
    String.concat ""
      (List.map (fun (name, size) -> Printf.sprintf "%s %d OK\n" name size) specs)
  in
  Alcotest.(check string) "listing" expected (out r);
  (* a corrupted byte flips the checksum verdict *)
  let corrupt = Bytes.of_string archive in
  Bytes.set corrupt 3 'X';
  let r2 = run_bench "tar" ~args:[ 1 ] [ ""; Bytes.to_string corrupt ] in
  Alcotest.(check bool) "corruption detected" true
    (let output = out r2 in
     String.length output >= 4
     &&
     match String.index_opt output '\n' with
     | Some nl -> String.sub output (nl - 4) 4 = " BAD"
     | None -> false);
  (* extract mode: contents round-trip *)
  let _, content = Workloads.Inputs.tar_manifest ~seed:31 ~members:6 in
  let r3 = run_bench "tar" ~args:[ 2 ] [ ""; archive ] in
  Alcotest.(check string) "extracted contents" content (out r3)

let yacc_variables () =
  (* Assignments, variable reads, unary minus, division-by-zero guard. *)
  let r = run_bench "yacc" [ "a=5;a*3;b=a+2;b-a;-(2+3);7/(1-1);c;" ] in
  Alcotest.(check string) "statement values" "5\n15\n7\n2\n-5\n0\n0\n7 0\n"
    (out r);
  (* Syntax errors are counted and recovery resumes at the next ';'. *)
  let r2 = run_bench "yacc" [ "1+;2*3;" ] in
  Alcotest.(check string) "error recovery" "6\n1 1\n" (out r2)

let yacc_operator_ladder () =
  (* Precedence and associativity of the full C operator set. *)
  let checks =
    [
      ("1+2*3;", 7);
      ("8>>1+1;", 2); (* shift binds looser than + *)
      ("1<<2<3;", 0); (* relational looser than shift: 4<3 *)
      ("5&3==3;", 1); (* & looser than ==: 5 & (3==3) = 5&1 *)
      ("6^3&1;", 7); (* ^ looser than &: 6 ^ (3&1) *)
      ("4|2^2;", 4); (* | loosest bitwise: 4 | (2^2) *)
      ("1&&0||1;", 1);
      ("2&&3;", 1); (* logical ops normalize *)
      ("!5;", 0);
      ("!0;", 1);
      ("~0;", -1);
      ("-(2+3)*4;", -20);
      ("10%4;", 2);
      ("7/2;", 3);
      ("9/(3-3);", 0); (* guarded division *)
      ("8%(2-2);", 0); (* guarded modulo *)
      ("x=10;x>=10&&x<11;", 1);
      ("100>>33;", 50); (* shift counts mask to 5 bits, C-style *)
    ]
  in
  List.iter
    (fun (src, expected) ->
      let r = run_bench "yacc" [ src ] in
      let output = out r in
      let last_value =
        match List.rev (String.split_on_char '\n' (String.trim output)) with
        | _summary :: value :: _ -> int_of_string value
        | _ -> Alcotest.failf "unexpected output %S for %s" output src
      in
      Alcotest.(check int) src expected last_value)
    checks

let slr_generator () =
  (* The generated tables drive a correct parse; conflicts are detected. *)
  let t = Workloads.Slr.build Workloads.W_yacc.grammar in
  Alcotest.(check bool) "has states" true (t.Workloads.Slr.nstates > 10);
  (* An ambiguous grammar must be rejected: S -> S S | x. *)
  let ambiguous =
    {
      Workloads.Slr.nterminals = 2;
      nnonterminals = 1;
      start = 0;
      eof = 1;
      rules = [| (0, [ Workloads.Slr.N 0; Workloads.Slr.N 0 ]); (0, [ Workloads.Slr.T 0 ]) |];
    }
  in
  match Workloads.Slr.build ambiguous with
  | exception Workloads.Slr.Conflict _ -> ()
  | _ -> Alcotest.fail "ambiguous grammar accepted"

let all_benchmarks_valid () =
  List.iter
    (fun b ->
      Ir.Check.program (Workloads.Bench.program b);
      Alcotest.(check bool)
        (b.Workloads.Bench.name ^ " has profile inputs")
        true
        (Workloads.Bench.profile_inputs b <> []))
    Workloads.Registry.all

let suite =
  [
    Alcotest.test_case "wc vs oracle" `Quick wc;
    Alcotest.test_case "cmp vs oracle" `Quick cmp;
    Alcotest.test_case "tee duplicates" `Quick tee;
    Alcotest.test_case "grep vs oracle" `Quick grep;
    Alcotest.test_case "grep options" `Quick grep_options;
    Alcotest.test_case "compress round-trips" `Quick compress;
    Alcotest.test_case "decompress inverts" `Quick decompress;
    Alcotest.test_case "cccp substitutes macros" `Quick cccp;
    Alcotest.test_case "cccp advanced features" `Quick cccp_advanced;
    Alcotest.test_case "lex token counts" `Quick lex;
    Alcotest.test_case "lex extended tokens" `Quick lex_extended;
    Alcotest.test_case "make dependency evaluation" `Quick make_bench;
    Alcotest.test_case "make variables and automatics" `Quick make_variables;
    Alcotest.test_case "tar archive verified" `Quick tar;
    Alcotest.test_case "tar list and extract" `Quick tar_list_extract;
    Alcotest.test_case "yacc vs oracle" `Quick yacc;
    Alcotest.test_case "yacc variables and recovery" `Quick yacc_variables;
    Alcotest.test_case "yacc operator ladder" `Quick yacc_operator_ladder;
    Alcotest.test_case "slr generator" `Quick slr_generator;
    Alcotest.test_case "all benchmarks valid" `Quick all_benchmarks_valid;
  ]
