(* Dependency guard: the oracle library (reference engines, the program
   generator, the soundness oracle) is test-only.  Reads the dune files
   named on the command line and fails if any library other than
   [oracle] and [fuzz], or any of the [main], [serve_cmd] and
   [checkjson] binaries, reaches [oracle] through its library closure.

   Usage: dep_guard.exe DUNE_FILE... *)

type sexp = Atom of string | List of sexp list

(* Just enough of dune's syntax: atoms, parentheses, strings without
   escapes, and ; line comments. *)
let parse text =
  let n = String.length text in
  let rec items i acc =
    if i >= n then (List.rev acc, i)
    else
      match text.[i] with
      | ' ' | '\t' | '\n' | '\r' -> items (i + 1) acc
      | ';' -> (
        match String.index_from_opt text i '\n' with
        | Some j -> items (j + 1) acc
        | None -> (List.rev acc, n))
      | '(' ->
        let sub, j = items (i + 1) [] in
        items j (List sub :: acc)
      | ')' -> (List.rev acc, i + 1)
      | '"' ->
        let j = String.index_from text (i + 1) '"' in
        items (j + 1) (Atom (String.sub text (i + 1) (j - i - 1)) :: acc)
      | _ ->
        let j = ref i in
        while
          !j < n && not (String.contains " \t\n\r();\"" text.[!j])
        do
          incr j
        done;
        items !j (Atom (String.sub text i (!j - i)) :: acc)
  in
  fst (items 0 [])

(* Every atom, nested ones included: a library named inside a
   [(select ...)] or [(re_export ...)] is a dependency too. *)
let rec atoms l = List.concat_map (function Atom a -> [ a ] | List l -> atoms l) l

let field key fields =
  List.concat_map
    (function List (Atom k :: vs) when k = key -> atoms vs | _ -> [])
    fields

(* (kind, names, libraries) of every library and executable stanza. *)
let stanzas file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  List.filter_map
    (function
      | List (Atom kind :: fields)
        when List.mem kind [ "library"; "executable"; "executables"; "test" ]
        ->
        let names = field "name" fields @ field "names" fields in
        Some (kind, names, field "libraries" fields)
      | _ -> None)
    (parse text)

let () =
  let all = List.concat_map stanzas (List.tl (Array.to_list Sys.argv)) in
  let libs =
    List.concat_map
      (fun (kind, names, deps) ->
        if kind = "library" then List.map (fun n -> (n, deps)) names else [])
      all
  in
  (* The first path from [name] to [oracle], depth first. *)
  let rec path_to_oracle seen name deps =
    List.fold_left
      (fun found dep ->
        match found with
        | Some _ -> found
        | None when dep = "oracle" -> Some [ name; dep ]
        | None when List.mem dep !seen -> None
        | None ->
          seen := dep :: !seen;
          Option.map
            (fun path -> name :: path)
            (path_to_oracle seen dep
               (Option.value ~default:[] (List.assoc_opt dep libs))))
      None deps
  in
  let guarded = [ "main"; "serve_cmd"; "checkjson" ] in
  let found n = List.exists (fun (_, names, _) -> List.mem n names) all in
  (match List.filter (fun n -> not (found n)) ("oracle" :: guarded) with
  | [] -> ()
  | missing ->
    Printf.eprintf "dep_guard: no stanza names %s\n"
      (String.concat ", " missing);
    exit 1);
  let leaks =
    List.concat_map
      (fun (kind, names, deps) ->
        List.filter_map
          (fun name ->
            let product =
              (kind = "library" && not (List.mem name [ "oracle"; "fuzz" ]))
              || List.mem name guarded
            in
            if product then path_to_oracle (ref []) name deps else None)
          names)
      all
  in
  List.iter
    (fun path ->
      Printf.eprintf "dep_guard: %s links the test-only oracle library\n"
        (String.concat " -> " path))
    leaks;
  if leaks <> [] then exit 1
