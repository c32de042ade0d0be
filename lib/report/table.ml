(* Plain-text table rendering for experiment output. *)

type align = L | R

type t = {
  title : string;
  header : string list;
  align : align list;
  rows : string list list;
}

let make ~title ~header ?align rows =
  let align =
    match align with
    | Some a ->
      if List.length a <> List.length header then
        invalid_arg "Table.make: align/header length mismatch";
      a
    | None -> List.map (fun _ -> R) header
  in
  List.iteri
    (fun idx row ->
      if List.length row <> List.length header then
        invalid_arg
          (Printf.sprintf "Table.make: row %d has %d cells, expected %d" idx
             (List.length row) (List.length header)))
    rows;
  { title; header; align; rows }

let title t = t.title
let header t = t.header
let rows t = t.rows

let widths t =
  let ncols = List.length t.header in
  let w = Array.make ncols 0 in
  let feed row =
    List.iteri (fun idx cell -> w.(idx) <- max w.(idx) (String.length cell)) row
  in
  feed t.header;
  List.iter feed t.rows;
  w

let pad align width s =
  let n = width - String.length s in
  if n <= 0 then s
  else
    match align with
    | L -> s ^ String.make n ' '
    | R -> String.make n ' ' ^ s

let render t =
  let w = widths t in
  let buf = Buffer.create 1024 in
  let line row =
    List.iteri
      (fun idx cell ->
        if idx > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad (List.nth t.align idx) w.(idx) cell))
      row;
    Buffer.add_char buf '\n'
  in
  if t.title <> "" then begin
    Buffer.add_string buf t.title;
    Buffer.add_char buf '\n'
  end;
  line t.header;
  line (List.map (fun width -> String.make width '-') (Array.to_list w));
  List.iter line t.rows;
  Buffer.contents buf
