type align = Left | Right

type row = Cells of string list | Rule

type t = {
  headers : string list;
  aligns : align list;
  mutable rows : row list; (* reverse order *)
}

let create ~columns =
  if (match columns with [] -> true | _ :: _ -> false) then invalid_arg "Table.create: no columns";
  { headers = List.map fst columns; aligns = List.map snd columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: cell count mismatch";
  t.rows <- Cells cells :: t.rows

let add_rule t = t.rows <- Rule :: t.rows

let cell_f ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x
let cell_pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

let render t =
  let rows = List.rev t.rows in
  let widths =
    List.fold_left
      (fun widths row ->
        match row with
        | Rule -> widths
        | Cells cells -> List.map2 (fun w c -> max w (String.length c)) widths cells)
      (List.map String.length t.headers)
      rows
  in
  let buf = Buffer.create 256 in
  let pad align width s =
    let fill = width - String.length s in
    match align with
    | Left -> s ^ String.make fill ' '
    | Right -> String.make fill ' ' ^ s
  in
  let emit_cells cells =
    let parts = List.map2 (fun (w, a) c -> pad a w c) (List.combine widths t.aligns) cells in
    Buffer.add_string buf ("| " ^ String.concat " | " parts ^ " |\n")
  in
  let emit_rule () =
    let parts = List.map (fun w -> String.make w '-') widths in
    Buffer.add_string buf ("+-" ^ String.concat "-+-" parts ^ "-+\n")
  in
  emit_rule ();
  emit_cells t.headers;
  emit_rule ();
  List.iter (function Rule -> emit_rule () | Cells cells -> emit_cells cells) rows;
  emit_rule ();
  Buffer.contents buf
