let needs_quoting s =
  String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s

let escape_field s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let row_to_string fields = String.concat "," (List.map escape_field fields)

let parse_line line =
  let n = String.length line in
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let rec plain i =
    if i >= n then flush_field ()
    else
      match line.[i] with
      | ',' ->
          flush_field ();
          plain (i + 1)
      | '"' when Buffer.length buf = 0 -> quoted (i + 1)
      | c ->
          Buffer.add_char buf c;
          plain (i + 1)
  and quoted i =
    if i >= n then invalid_arg "Csv.parse_line: unterminated quote"
    else
      match line.[i] with
      | '"' when i + 1 < n && line.[i + 1] = '"' ->
          Buffer.add_char buf '"';
          quoted (i + 2)
      | '"' ->
          (* end of quoted section; expect ',' or end *)
          if i + 1 >= n then flush_field ()
          else if line.[i + 1] = ',' then begin
            flush_field ();
            plain (i + 2)
          end
          else invalid_arg "Csv.parse_line: junk after closing quote"
      | c ->
          Buffer.add_char buf c;
          quoted (i + 1)
  in
  plain 0;
  List.rev !fields
