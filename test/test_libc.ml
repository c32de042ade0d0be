(* DSL libc correctness: each routine exercised through a tiny program
   against the obvious OCaml expectation. *)

open Ir.Ast.Dsl

let run_main ?(streams = []) ?(globals = []) body =
  let prog = Workloads.Libc.link ~globals ~entry:"main" [ func "main" [] body ] in
  Vm.Interp.run (Ir.Lower.program prog) (Vm.Io.input streams)

let ret_main ?streams ?globals body = (run_main ?streams ?globals body).Vm.Interp.return_value

let out_main ?streams ?globals body =
  Vm.Io.output (run_main ?streams ?globals body).Vm.Interp.io 0

let strings () =
  let globals =
    [
      ("s_hello", Ir.Ast.Gstring "hello world");
      ("s_hell", Ir.Ast.Gstring "hell");
      ("s_world", Ir.Ast.Gstring "world");
      ("s_empty", Ir.Ast.Gstring "");
      ("s_abc", Ir.Ast.Gstring "abc");
      ("s_abd", Ir.Ast.Gstring "abd");
    ]
  in
  Alcotest.(check int) "strlen" 11
    (ret_main ~globals [ ret (call "strlen" [ g "s_hello" ]) ]);
  Alcotest.(check int) "strlen empty" 0
    (ret_main ~globals [ ret (call "strlen" [ g "s_empty" ]) ]);
  Alcotest.(check bool) "strcmp lt" true
    (ret_main ~globals [ ret (call "strcmp" [ g "s_abc"; g "s_abd" ]) ] < 0);
  Alcotest.(check int) "strcmp eq" 0
    (ret_main ~globals [ ret (call "strcmp" [ g "s_abc"; g "s_abc" ]) ]);
  Alcotest.(check int) "strncmp prefix" 0
    (ret_main ~globals [ ret (call "strncmp" [ g "s_hello"; g "s_hell"; i 4 ]) ]);
  Alcotest.(check int) "strchr found" (Char.code 'w')
    (ret_main ~globals
       [ ret (ld8 (call "strchr" [ g "s_hello"; chr 'w' ])) ]);
  Alcotest.(check int) "strchr absent" 0
    (ret_main ~globals [ ret (call "strchr" [ g "s_hello"; chr 'z' ]) ]);
  Alcotest.(check int) "strrchr finds last" 9
    (ret_main ~globals
       [ ret (call "strrchr" [ g "s_hello"; chr 'l' ] -% g "s_hello") ]);
  Alcotest.(check int) "strstr offset" 6
    (ret_main ~globals
       [ ret (call "strstr" [ g "s_hello"; g "s_world" ] -% g "s_hello") ]);
  Alcotest.(check int) "strstr absent" 0
    (ret_main ~globals [ ret (call "strstr" [ g "s_abc"; g "s_world" ]) ]);
  Alcotest.(check int) "strspn" 4
    (ret_main ~globals [ ret (call "strspn" [ g "s_hello"; g "s_hell" ]) ]);
  Alcotest.(check string) "strcpy/strcat" "hello world!"
    (out_main ~globals
       [
         decl "buf" (alloc (i 64));
         expr (call "strcpy" [ v "buf"; g "s_hello" ]);
         st8 (v "buf" +% i 11) (chr '!');
         st8 (v "buf" +% i 12) (i 0);
         expr (call "print_string" [ i 0; v "buf" ]);
         ret0;
       ]);
  Alcotest.(check string) "strncpy pads" "he\000\000"
    (out_main ~globals
       [
         decl "buf" (alloc (i 8));
         st8 (v "buf" +% i 4) (i 0);
         expr (call "strncpy" [ v "buf"; g "s_hello"; i 2 ]);
         expr (call "strncpy" [ v "buf" +% i 2; g "s_empty"; i 2 ]);
         decl "k" (i 0);
         while_ (v "k" <% i 4) [ putc (i 0) (ld8 (v "buf" +% v "k")); incr_ "k" ];
         ret0;
       ])

let memory_funcs () =
  Alcotest.(check int) "memcmp equal" 0
    (ret_main
       [
         decl "a" (alloc (i 8));
         decl "b" (alloc (i 8));
         expr (call "memset" [ v "a"; i 7; i 8 ]);
         expr (call "memset" [ v "b"; i 7; i 8 ]);
         ret (call "memcmp" [ v "a"; v "b"; i 8 ]);
       ]);
  Alcotest.(check int) "memcpy then differ" 5
    (ret_main
       [
         decl "a" (alloc (i 8));
         decl "b" (alloc (i 8));
         expr (call "memset" [ v "a"; i 9; i 8 ]);
         expr (call "memcpy" [ v "b"; v "a"; i 8 ]);
         st8 (v "b" +% i 3) (i 4);
         ret (call "memcmp" [ v "a"; v "b"; i 8 ]);
       ])

let conversions () =
  let globals =
    [
      ("n_plain", Ir.Ast.Gstring "1234");
      ("n_neg", Ir.Ast.Gstring "  -56x");
      ("n_plus", Ir.Ast.Gstring "+7");
      ("n_none", Ir.Ast.Gstring "abc");
    ]
  in
  Alcotest.(check int) "atoi" 1234
    (ret_main ~globals [ ret (call "atoi" [ g "n_plain" ]) ]);
  Alcotest.(check int) "atoi signed with spaces" (-56)
    (ret_main ~globals [ ret (call "atoi" [ g "n_neg" ]) ]);
  Alcotest.(check int) "atoi plus" 7
    (ret_main ~globals [ ret (call "atoi" [ g "n_plus" ]) ]);
  Alcotest.(check int) "atoi none" 0
    (ret_main ~globals [ ret (call "atoi" [ g "n_none" ]) ]);
  Alcotest.(check string) "print_num" "-1080 0 42"
    (out_main
       [
         expr (call "print_num" [ i 0; i 0 -% i 1080 ]);
         putc (i 0) (chr ' ');
         expr (call "print_num" [ i 0; i 0 ]);
         putc (i 0) (chr ' ');
         expr (call "print_num" [ i 0; i 42 ]);
         ret0;
       ]);
  Alcotest.(check string) "print_hex" "ff 0 -1a2b"
    (out_main
       [
         expr (call "print_hex" [ i 0; i 255 ]);
         putc (i 0) (chr ' ');
         expr (call "print_hex" [ i 0; i 0 ]);
         putc (i 0) (chr ' ');
         expr (call "print_hex" [ i 0; i 0 -% i 0x1a2b ]);
         ret0;
       ])

let ctype () =
  let classify name c =
    ret_main [ ret (call name [ chr c ]) ] <> 0
  in
  Alcotest.(check bool) "space" true (classify "is_space" ' ');
  Alcotest.(check bool) "tab" true (classify "is_space" '\t');
  Alcotest.(check bool) "x not space" false (classify "is_space" 'x');
  Alcotest.(check bool) "digit" true (classify "is_digit" '7');
  Alcotest.(check bool) "alpha upper" true (classify "is_alpha" 'Q');
  Alcotest.(check bool) "alnum" true (classify "is_alnum" '0');
  Alcotest.(check bool) "punct" true (classify "is_punct" ';');
  Alcotest.(check bool) "xdigit a" true (classify "is_xdigit" 'a');
  Alcotest.(check bool) "xdigit G" false (classify "is_xdigit" 'G');
  Alcotest.(check bool) "eof safe" false
    (ret_main [ ret (call "is_space" [ i 0 -% i 1 ]) ] <> 0);
  Alcotest.(check int) "to_upper" (Char.code 'A')
    (ret_main [ ret (call "to_upper" [ chr 'a' ]) ]);
  Alcotest.(check int) "to_upper noop" (Char.code '!')
    (ret_main [ ret (call "to_upper" [ chr '!' ]) ]);
  Alcotest.(check int) "to_lower" (Char.code 'z')
    (ret_main [ ret (call "to_lower" [ chr 'Z' ]) ])

let sort_and_search () =
  (* qsort a pseudo-random word array, verify sortedness and bsearch. *)
  let n = 64 in
  let r =
    run_main
      [
        decl "a" (alloc (i (n * 4)));
        decl "k" (i 0);
        decl "seed" (i 12345);
        while_ (v "k" <% i n)
          [
            set "seed" (((v "seed" *% i 1103515245) +% i 12345) &% i 0x3fffffff);
            st32 (v "a" +% (v "k" *% i 4)) (v "seed" %% i 1000);
            incr_ "k";
          ];
        expr (call "qsort_words" [ v "a"; i 0; i (n - 1) ]);
        (* verify ascending *)
        set "k" (i 1);
        while_ (v "k" <% i n)
          [
            when_
              (ld32 (v "a" +% ((v "k" -% i 1) *% i 4))
              >% ld32 (v "a" +% (v "k" *% i 4)))
              [ ret (i 0 -% i 1) ];
            incr_ "k";
          ];
        (* every element is found by binary search *)
        set "k" (i 0);
        while_ (v "k" <% i n)
          [
            decl "idx"
              (call "bsearch_words"
                 [ v "a"; i n; ld32 (v "a" +% (v "k" *% i 4)) ]);
            when_ (v "idx" <% i 0) [ ret (i 0 -% i 2) ];
            incr_ "k";
          ];
        (* absent key *)
        ret (call "bsearch_words" [ v "a"; i n; i 10_000 ]);
      ]
  in
  Alcotest.(check int) "sorted, searchable, absent = -1" (-1)
    r.Vm.Interp.return_value

let line_reader () =
  Alcotest.(check string) "read_line strips newlines" "ab|cd|"
    (out_main ~streams:[ "ab\ncd" ]
       [
         decl "buf" (alloc (i 32));
         decl "len" (call "read_line" [ i 0; v "buf"; i 32 ]);
         while_ (v "len" >=% i 0)
           [
             expr (call "print_string" [ i 0; v "buf" ]);
             putc (i 0) (chr '|');
             set "len" (call "read_line" [ i 0; v "buf"; i 32 ]);
           ];
         ret0;
       ]);
  (* truncation at the buffer limit *)
  Alcotest.(check string) "truncates long lines" "abc"
    (out_main ~streams:[ "abcdefgh\n" ]
       [
         decl "buf" (alloc (i 4));
         expr (call "read_line" [ i 0; v "buf"; i 4 ]);
         expr (call "print_string" [ i 0; v "buf" ]);
         ret0;
       ])

(* The DSL library's string hash (djb2 with a 31-bit mask). *)
let dsl_hash_string s m =
  let h = ref 5381 in
  String.iter (fun c -> h := ((!h * 33) + Char.code c) land 0x7fffffff) s;
  !h mod m

let hashes () =
  let globals = [ ("h_s", Ir.Ast.Gstring "hello") ] in
  Alcotest.(check int) "hash_string matches mirror"
    (dsl_hash_string "hello" 997)
    (ret_main ~globals [ ret (call "hash_string" [ g "h_s"; i 997 ]) ]);
  Alcotest.(check bool) "hash bounded" true
    (let h = ret_main ~globals [ ret (call "hash_string" [ g "h_s"; i 64 ]) ] in
     h >= 0 && h < 64)

let minmax () =
  Alcotest.(check int) "min" 3 (ret_main [ ret (call "min_i" [ i 3; i 9 ]) ]);
  Alcotest.(check int) "max" 9 (ret_main [ ret (call "max_i" [ i 3; i 9 ]) ]);
  Alcotest.(check int) "abs" 4 (ret_main [ ret (call "abs_i" [ neg (i 4) ]) ])

let suite =
  [
    Alcotest.test_case "string functions" `Quick strings;
    Alcotest.test_case "memory functions" `Quick memory_funcs;
    Alcotest.test_case "conversions" `Quick conversions;
    Alcotest.test_case "ctype" `Quick ctype;
    Alcotest.test_case "qsort and bsearch" `Quick sort_and_search;
    Alcotest.test_case "read_line" `Quick line_reader;
    Alcotest.test_case "hashes" `Quick hashes;
    Alcotest.test_case "min/max/abs" `Quick minmax;
  ]
