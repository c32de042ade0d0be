(* A small C library written in the workload DSL.

   Every benchmark links the whole library; the functions a benchmark
   never calls become zero-weight functions, exactly the dead code the
   layout algorithm pushes out of the effective region (Table 5's
   total-vs-effective static bytes).  Because these are real DSL
   functions, library code appears in the dynamic traces, as in the
   paper. *)

open Ir.Ast.Dsl

(* ctype classification flags *)
let f_space = 1
let f_digit = 2
let f_upper = 4
let f_lower = 8
let f_punct = 16

let ctype_image =
  String.init 256 (fun code ->
      let c = Char.chr code in
      let flags =
        (if c = ' ' || c = '\t' || c = '\n' || c = '\r' then f_space else 0)
        lor (if c >= '0' && c <= '9' then f_digit else 0)
        lor (if c >= 'A' && c <= 'Z' then f_upper else 0)
        lor (if c >= 'a' && c <= 'z' then f_lower else 0)
        lor
        if (c >= '!' && c <= '/') || (c >= ':' && c <= '@')
           || (c >= '[' && c <= '`') || (c >= '{' && c <= '~')
        then f_punct
        else 0
      in
      Char.chr flags)

(* ctype tests: table lookup guarded against out-of-range codes (getc
   returns -1 at end of input). *)
let ctype_fn name mask =
  func name [ "c" ]
    [
      if_ ((v "c" <% i 0) ||% (v "c" >=% i 256)) [ ret (i 0) ] [];
      ret (ld8 (g "__ctype" +% v "c") &% i mask);
    ]

let is_space = ctype_fn "is_space" f_space
let is_digit = ctype_fn "is_digit" f_digit
let is_upper = ctype_fn "is_upper" f_upper
let is_lower = ctype_fn "is_lower" f_lower
let is_punct = ctype_fn "is_punct" f_punct
let is_alpha = ctype_fn "is_alpha" (f_upper lor f_lower)
let is_alnum = ctype_fn "is_alnum" (f_upper lor f_lower lor f_digit)

let to_upper =
  func "to_upper" [ "c" ]
    [
      if_ (call "is_lower" [ v "c" ]) [ ret (v "c" -% i 32) ] [ ret (v "c") ];
    ]

let to_lower =
  func "to_lower" [ "c" ]
    [
      if_ (call "is_upper" [ v "c" ]) [ ret (v "c" +% i 32) ] [ ret (v "c") ];
    ]

let min_i = func "min_i" [ "a"; "b" ]
    [ if_ (v "a" <% v "b") [ ret (v "a") ] [ ret (v "b") ] ]

let max_i = func "max_i" [ "a"; "b" ]
    [ if_ (v "a" >% v "b") [ ret (v "a") ] [ ret (v "b") ] ]

let abs_i = func "abs_i" [ "a" ]
    [ if_ (v "a" <% i 0) [ ret (i 0 -% v "a") ] [ ret (v "a") ] ]

let strlen =
  func "strlen" [ "s" ]
    [
      decl "n" (i 0);
      while_ (ld8 (v "s" +% v "n") <>% i 0) [ incr_ "n" ];
      ret (v "n");
    ]

let strcmp =
  func "strcmp" [ "a"; "b" ]
    [
      decl "idx" (i 0);
      while_ (i 1)
        [
          decl "ca" (ld8 (v "a" +% v "idx"));
          decl "cb" (ld8 (v "b" +% v "idx"));
          if_ (v "ca" <>% v "cb") [ ret (v "ca" -% v "cb") ] [];
          if_ (v "ca" ==% i 0) [ ret (i 0) ] [];
          incr_ "idx";
        ];
      ret (i 0);
    ]

let strncmp =
  func "strncmp" [ "a"; "b"; "n" ]
    [
      decl "idx" (i 0);
      while_ (v "idx" <% v "n")
        [
          decl "ca" (ld8 (v "a" +% v "idx"));
          decl "cb" (ld8 (v "b" +% v "idx"));
          if_ (v "ca" <>% v "cb") [ ret (v "ca" -% v "cb") ] [];
          if_ (v "ca" ==% i 0) [ ret (i 0) ] [];
          incr_ "idx";
        ];
      ret (i 0);
    ]

let strcpy =
  func "strcpy" [ "dst"; "src" ]
    [
      decl "idx" (i 0);
      decl "c" (ld8 (v "src"));
      while_ (v "c" <>% i 0)
        [
          st8 (v "dst" +% v "idx") (v "c");
          incr_ "idx";
          set "c" (ld8 (v "src" +% v "idx"));
        ];
      st8 (v "dst" +% v "idx") (i 0);
      ret (v "dst");
    ]

let strchr =
  func "strchr" [ "s"; "c" ]
    [
      decl "idx" (i 0);
      while_ (i 1)
        [
          decl "cur" (ld8 (v "s" +% v "idx"));
          if_ (v "cur" ==% v "c") [ ret (v "s" +% v "idx") ] [];
          if_ (v "cur" ==% i 0) [ ret (i 0) ] [];
          incr_ "idx";
        ];
      ret (i 0);
    ]

let memcpy =
  func "memcpy" [ "dst"; "src"; "n" ]
    [
      decl "idx" (i 0);
      while_ (v "idx" <% v "n")
        [
          st8 (v "dst" +% v "idx") (ld8 (v "src" +% v "idx"));
          incr_ "idx";
        ];
      ret (v "dst");
    ]

let memset =
  func "memset" [ "p"; "c"; "n" ]
    [
      decl "idx" (i 0);
      while_ (v "idx" <% v "n")
        [ st8 (v "p" +% v "idx") (v "c"); incr_ "idx" ];
      ret (v "p");
    ]

let memcmp =
  func "memcmp" [ "a"; "b"; "n" ]
    [
      decl "idx" (i 0);
      while_ (v "idx" <% v "n")
        [
          decl "d" (ld8 (v "a" +% v "idx") -% ld8 (v "b" +% v "idx"));
          if_ (v "d" <>% i 0) [ ret (v "d") ] [];
          incr_ "idx";
        ];
      ret (i 0);
    ]

let atoi =
  func "atoi" [ "s" ]
    [
      decl "idx" (i 0);
      while_ (call "is_space" [ ld8 (v "s" +% v "idx") ]) [ incr_ "idx" ];
      decl "sign" (i 1);
      decl "c" (ld8 (v "s" +% v "idx"));
      if_ (v "c" ==% chr '-')
        [ set "sign" (i 0 -% i 1); incr_ "idx" ]
        [ when_ (v "c" ==% chr '+') [ incr_ "idx" ] ];
      decl "acc" (i 0);
      set "c" (ld8 (v "s" +% v "idx"));
      while_ (call "is_digit" [ v "c" ])
        [
          set "acc" ((v "acc" *% i 10) +% (v "c" -% chr '0'));
          incr_ "idx";
          set "c" (ld8 (v "s" +% v "idx"));
        ];
      ret (v "acc" *% v "sign");
    ]

(* Multiplicative string hash, bounded by [m]. *)
let hash_string =
  func "hash_string" [ "s"; "m" ]
    [
      decl "h" (i 5381);
      decl "idx" (i 0);
      decl "c" (ld8 (v "s"));
      while_ (v "c" <>% i 0)
        [
          set "h" (((v "h" *% i 33) +% v "c") &% i 0x7fffffff);
          incr_ "idx";
          set "c" (ld8 (v "s" +% v "idx"));
        ];
      ret (v "h" %% v "m");
    ]

let hash_bytes =
  func "hash_bytes" [ "p"; "n"; "m" ]
    [
      decl "h" (i 5381);
      decl "idx" (i 0);
      while_ (v "idx" <% v "n")
        [
          set "h" (((v "h" *% i 33) +% ld8 (v "p" +% v "idx")) &% i 0x7fffffff);
          incr_ "idx";
        ];
      ret (v "h" %% v "m");
    ]

(* Write a NUL-terminated string to an output stream. *)
let print_string =
  func "print_string" [ "stream"; "s" ]
    [
      decl "idx" (i 0);
      decl "c" (ld8 (v "s"));
      while_ (v "c" <>% i 0)
        [
          putc (v "stream") (v "c");
          incr_ "idx";
          set "c" (ld8 (v "s" +% v "idx"));
        ];
      ret0;
    ]

(* Decimal output, handling zero and negatives. *)
let print_num =
  func "print_num" [ "stream"; "n" ]
    [
      when_ (v "n" ==% i 0) [ putc (v "stream") (chr '0'); ret0 ];
      when_ (v "n" <% i 0)
        [ putc (v "stream") (chr '-'); set "n" (i 0 -% v "n") ];
      decl "buf" (alloc (i 16));
      decl "len" (i 0);
      while_ (v "n" >% i 0)
        [
          st8 (v "buf" +% v "len") ((v "n" %% i 10) +% chr '0');
          set "n" (v "n" /% i 10);
          incr_ "len";
        ];
      while_ (v "len" >% i 0)
        [ decr_ "len"; putc (v "stream") (ld8 (v "buf" +% v "len")) ];
      ret0;
    ]

(* Read one line from a stream into [buf] (at most [max]-1 bytes), strip
   the newline, NUL-terminate.  Returns the line length, or -1 at end of
   input when nothing was read. *)
let read_line =
  func "read_line" [ "stream"; "buf"; "max" ]
    [
      decl "len" (i 0);
      decl "c" (getc (v "stream"));
      when_ (v "c" <% i 0) [ ret (i 0 -% i 1) ];
      while_ ((v "c" >=% i 0) &&% (v "c" <>% chr '\n'))
        [
          when_ (v "len" <% (v "max" -% i 1))
            [ st8 (v "buf" +% v "len") (v "c"); incr_ "len" ];
          set "c" (getc (v "stream"));
        ];
      st8 (v "buf" +% v "len") (i 0);
      ret (v "len");
    ]

let is_xdigit =
  func "is_xdigit" [ "c" ]
    [
      when_ (call "is_digit" [ v "c" ]) [ ret (i 1) ];
      when_ ((v "c" >=% chr 'a') &&% (v "c" <=% chr 'f')) [ ret (i 1) ];
      when_ ((v "c" >=% chr 'A') &&% (v "c" <=% chr 'F')) [ ret (i 1) ];
      ret (i 0);
    ]

let strrchr =
  func "strrchr" [ "s"; "c" ]
    [
      decl "found" (i 0);
      decl "idx" (i 0);
      decl "cur" (ld8 (v "s"));
      while_ (v "cur" <>% i 0)
        [
          when_ (v "cur" ==% v "c") [ set "found" (v "s" +% v "idx") ];
          incr_ "idx";
          set "cur" (ld8 (v "s" +% v "idx"));
        ];
      ret (v "found");
    ]

let strcat =
  func "strcat" [ "dst"; "src" ]
    [
      decl "off" (call "strlen" [ v "dst" ]);
      expr (call "strcpy" [ v "dst" +% v "off"; v "src" ]);
      ret (v "dst");
    ]

let strncpy =
  func "strncpy" [ "dst"; "src"; "n" ]
    [
      decl "idx" (i 0);
      decl "c" (ld8 (v "src"));
      while_ ((v "idx" <% v "n") &&% (v "c" <>% i 0))
        [
          st8 (v "dst" +% v "idx") (v "c");
          incr_ "idx";
          set "c" (ld8 (v "src" +% v "idx"));
        ];
      while_ (v "idx" <% v "n")
        [ st8 (v "dst" +% v "idx") (i 0); incr_ "idx" ];
      ret (v "dst");
    ]

(* Length of the prefix of s consisting of characters in accept. *)
let strspn =
  func "strspn" [ "s"; "accept" ]
    [
      decl "idx" (i 0);
      while_ (i 1)
        [
          decl "c" (ld8 (v "s" +% v "idx"));
          when_ (v "c" ==% i 0) [ ret (v "idx") ];
          when_ (call "strchr" [ v "accept"; v "c" ] ==% i 0)
            [ ret (v "idx") ];
          incr_ "idx";
        ];
      ret (v "idx");
    ]

(* First occurrence of needle in haystack, or 0. *)
let strstr =
  func "strstr" [ "hay"; "needle" ]
    [
      when_ (ld8 (v "needle") ==% i 0) [ ret (v "hay") ];
      decl "nlen" (call "strlen" [ v "needle" ]);
      decl "idx" (i 0);
      while_ (ld8 (v "hay" +% v "idx") <>% i 0)
        [
          when_
            (call "strncmp" [ v "hay" +% v "idx"; v "needle"; v "nlen" ]
            ==% i 0)
            [ ret (v "hay" +% v "idx") ];
          incr_ "idx";
        ];
      ret (i 0);
    ]

(* In-place quicksort of an array of 32-bit words (Lomuto partition,
   recursive). *)
let qsort_words =
  func "qsort_words" [ "base"; "lo"; "hi" ]
    [
      when_ (v "lo" >=% v "hi") [ ret0 ];
      decl "pivot" (ld32 (v "base" +% (v "hi" *% i 4)));
      decl "store" (v "lo");
      decl "k" (v "lo");
      while_ (v "k" <% v "hi")
        [
          decl "cur" (ld32 (v "base" +% (v "k" *% i 4)));
          when_ (v "cur" <% v "pivot")
            [
              decl "tmp" (ld32 (v "base" +% (v "store" *% i 4)));
              st32 (v "base" +% (v "store" *% i 4)) (v "cur");
              st32 (v "base" +% (v "k" *% i 4)) (v "tmp");
              incr_ "store";
            ];
          incr_ "k";
        ];
      decl "tmp2" (ld32 (v "base" +% (v "store" *% i 4)));
      st32 (v "base" +% (v "store" *% i 4)) (v "pivot");
      st32 (v "base" +% (v "hi" *% i 4)) (v "tmp2");
      expr (call "qsort_words" [ v "base"; v "lo"; v "store" -% i 1 ]);
      expr (call "qsort_words" [ v "base"; v "store" +% i 1; v "hi" ]);
      ret0;
    ]

(* Binary search in a sorted word array; index or -1. *)
let bsearch_words =
  func "bsearch_words" [ "base"; "n"; "key" ]
    [
      decl "lo" (i 0);
      decl "hi" (v "n" -% i 1);
      while_ (v "lo" <=% v "hi")
        [
          decl "mid" ((v "lo" +% v "hi") /% i 2);
          decl "cur" (ld32 (v "base" +% (v "mid" *% i 4)));
          when_ (v "cur" ==% v "key") [ ret (v "mid") ];
          if_ (v "cur" <% v "key")
            [ set "lo" (v "mid" +% i 1) ]
            [ set "hi" (v "mid" -% i 1) ];
        ];
      ret (i 0 -% i 1);
    ]

(* Hexadecimal output (lowercase, no prefix, at least one digit). *)
let print_hex =
  func "print_hex" [ "stream"; "n" ]
    [
      when_ (v "n" ==% i 0) [ putc (v "stream") (chr '0'); ret0 ];
      when_ (v "n" <% i 0)
        [ putc (v "stream") (chr '-'); set "n" (i 0 -% v "n") ];
      decl "buf" (alloc (i 20));
      decl "len" (i 0);
      while_ (v "n" >% i 0)
        [
          decl "d" (v "n" &% i 15);
          if_ (v "d" <% i 10)
            [ st8 (v "buf" +% v "len") (v "d" +% chr '0') ]
            [ st8 (v "buf" +% v "len") (v "d" -% i 10 +% chr 'a') ];
          set "n" (v "n" >>% i 4);
          incr_ "len";
        ];
      while_ (v "len" >% i 0)
        [ decr_ "len"; putc (v "stream") (ld8 (v "buf" +% v "len")) ];
      ret0;
    ]

let funcs =
  [
    is_space; is_digit; is_upper; is_lower; is_punct; is_alpha; is_alnum;
    is_xdigit; to_upper; to_lower; min_i; max_i; abs_i; strlen; strcmp;
    strncmp; strcpy; strncpy; strcat; strchr; strrchr; strspn; strstr;
    memcpy; memset; memcmp; atoi; hash_string; hash_bytes; qsort_words;
    bsearch_words; print_string; print_num; print_hex; read_line;
  ]

(* Assemble a complete program: workload globals/functions plus the
   library. *)
let link ?(globals = []) ~entry funcs_list : Ir.Ast.program =
  {
    Ir.Ast.globals = globals @ [ ("__ctype", Ir.Ast.Gbytes ctype_image) ];
    funcs = funcs_list @ funcs;
    entry;
  }

(* ------------------------------------------------------------------ *)
(* Generated surface extension                                         *)
(* ------------------------------------------------------------------ *)

(* Extra buffer routines for the scaled workload variants (see [Scale]):
   [count] generated functions cycling through three shapes — rolling
   digest, in-place blend, run-counting scan — with per-function
   multipliers and strides so every instance lowers to distinct code.
   They are not part of [funcs]/[link]: only scaled programs carry them,
   which is what grows the library surface beyond the paper's. *)
let surface ~count : Ir.Ast.func list =
  List.init count (fun m ->
      let name = Printf.sprintf "xlib_%d" m in
      let mult = 31 + (2 * (m mod 7)) in
      let stride = 1 + (m mod 3) in
      match m mod 3 with
      | 0 ->
        (* rolling digest over the buffer *)
        func name [ "buf"; "len" ]
          [
            decl "h" (i (40503 + (mult * 97)));
            decl "k" (i 0);
            while_ (v "k" <% v "len")
              [
                set "h"
                  (((v "h" *% i mult) ^% ld8 (v "buf" +% v "k")) &% i 0xffffff);
                set "k" (v "k" +% i stride);
              ];
            ret (v "h");
          ]
      | 1 ->
        (* blend the buffer in place *)
        func name [ "buf"; "len" ]
          [
            decl "k" (i 0);
            decl "c" (i (mult land 0xff));
            while_ (v "k" <% v "len")
              [
                set "c" ((v "c" +% ld8 (v "buf" +% v "k")) &% i 0xff);
                st8 (v "buf" +% v "k") (v "c");
                set "k" (v "k" +% i stride);
              ];
            ret (v "c");
          ]
      | _ ->
        (* scan for the maximum byte, counting value runs *)
        func name [ "buf"; "len" ]
          [
            decl "best" (i (-1));
            decl "runs" (i 0);
            decl "prev" (i (-1));
            decl "k" (i 0);
            while_ (v "k" <% v "len")
              [
                decl "b" (ld8 (v "buf" +% v "k"));
                when_ (v "b" >% v "best") [ set "best" (v "b") ];
                when_ (v "b" <>% v "prev") [ incr_ "runs" ];
                set "prev" (v "b");
                set "k" (v "k" +% i stride);
              ];
            ret ((v "best" <<% i 8) +% v "runs");
          ])
