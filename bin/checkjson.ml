(* checkjson — CI helper: verify that each FILE argument parses as JSON
   with the in-tree parser ([Obs.Json]) and, when a document carries a
   top-level "schema" field, that the schema is one this repository
   emits.  `--ndjson` treats each file as newline-delimited JSON and
   checks every non-blank line (the layout service's wire format).

   Exit codes: 0 when every file passes; 1 on the first malformed
   document; 2 on usage errors; 3 when every document parses but one
   declares an unknown schema — a distinct code so CI can tell "broken
   JSON" from "valid JSON of a version this tree does not speak". *)

let known_schemas =
  [
    "impact.table-run/v1";
    "impact.lint/v1";
    "impact.absint/v1";
    "impact.serve/v1";
    "impact.serve-chaos/v1";
    "impact.soak/v1";
  ]

(* Known documents with a fixed shape also get a required-field check:
   a soak report missing its contract sections is as useless to CI as
   unparsable JSON, so it fails with the same exit code. *)
let required_fields =
  [
    ( "impact.soak/v1",
      [ "seed"; "requests"; "responses"; "latency"; "memory"; "violations" ] );
    ("impact.absint/v1", [ "results" ]);
  ]

type verdict = { mutable parse_failed : bool; mutable bad_schema : bool }

(* Per-element required fields inside a top-level list — the absint
   report is only useful if every result row carries its certified
   interval and classification counts. *)
let element_fields =
  [
    ( "impact.absint/v1",
      ( "results",
        [ "bench"; "strategy"; "config"; "certified"; "classes"; "gated" ] )
    );
  ]

let check_fields v ~where schema json =
  (match List.assoc_opt schema required_fields with
  | None -> ()
  | Some fields ->
      List.iter
        (fun f ->
          if Obs.Json.member f json = None then begin
            Printf.eprintf "checkjson: %s: %s document missing %S\n" where
              schema f;
            v.parse_failed <- true
          end)
        fields);
  match List.assoc_opt schema element_fields with
  | None -> ()
  | Some (list_field, fields) -> (
      match Obs.Json.member list_field json with
      | Some (Obs.Json.List elems) ->
          List.iteri
            (fun i elem ->
              List.iter
                (fun f ->
                  if Obs.Json.member f elem = None then begin
                    Printf.eprintf
                      "checkjson: %s: %s element %d of %S missing %S\n" where
                      schema i list_field f;
                    v.parse_failed <- true
                  end)
                fields)
            elems
      | _ -> ())

let check_schema v ~where json =
  match json with
  | Obs.Json.Obj _ -> (
      match Obs.Json.member "schema" json with
      | None -> ()  (* schema-less documents (e.g. Chrome traces) are fine *)
      | Some (Obs.Json.String s) when List.mem s known_schemas ->
          check_fields v ~where s json
      | Some (Obs.Json.String s) ->
          Printf.eprintf "checkjson: %s: unknown schema %S\n" where s;
          v.bad_schema <- true
      | Some _ ->
          Printf.eprintf "checkjson: %s: schema must be a string\n" where;
          v.bad_schema <- true)
  | _ -> ()

let check_ndjson v path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let ok = ref true in
        let line_no = ref 0 in
        (try
           while true do
             let line = input_line ic in
             incr line_no;
             if String.trim line <> "" then
               let where = Printf.sprintf "%s:%d" path !line_no in
               match Obs.Json.parse line with
               | Ok json ->
                   let before = (v.bad_schema, v.parse_failed) in
                   check_schema v ~where json;
                   if (v.bad_schema, v.parse_failed) <> before then ok := false
               | Error msg ->
                   Printf.eprintf "checkjson: %s: %s\n" where msg;
                   v.parse_failed <- true;
                   ok := false
           done
         with End_of_file -> ());
        if !ok then Printf.printf "checkjson: ok %s (%d lines)\n" path !line_no)

let check_file v ~ndjson path =
  try
    if ndjson then check_ndjson v path
    else
      match Obs.Json.of_file path with
      | Ok json ->
          let before = (v.bad_schema, v.parse_failed) in
          check_schema v ~where:path json;
          if (v.bad_schema, v.parse_failed) = before then
            Printf.printf "checkjson: ok %s\n" path
      | Error msg ->
          Printf.eprintf "checkjson: %s: %s\n" path msg;
          v.parse_failed <- true
  with Sys_error msg ->
    (* an unreadable file is a failed check, not a crash *)
    Printf.eprintf "checkjson: %s\n" msg;
    v.parse_failed <- true

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let ndjson = List.mem "--ndjson" args in
  let files = List.filter (fun a -> a <> "--ndjson") args in
  if files = [] then (
    prerr_endline "usage: checkjson [--ndjson] FILE...";
    exit 2);
  let v = { parse_failed = false; bad_schema = false } in
  List.iter (check_file v ~ndjson) files;
  if v.parse_failed then exit 1 else if v.bad_schema then exit 3 else exit 0
