type t = {
  header : string list;
  arity : int;
  mutable rows : string list list;  (* reversed *)
}

let create ~header =
  if header = [] then invalid_arg "Table.create: empty header";
  { header; arity = List.length header; rows = [] }

let add_row t row =
  if List.length row <> t.arity then
    invalid_arg "Table.add_row: arity mismatch with header";
  t.rows <- row :: t.rows

let rows_in_order t = List.rev t.rows

let looks_numeric s =
  s <> "" && (match float_of_string_opt s with Some _ -> true | None -> false)

let render fmt t =
  let rows = rows_in_order t in
  let widths = Array.of_list (List.map String.length t.header) in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    rows;
  let pad i cell =
    let w = widths.(i) in
    let gap = w - String.length cell in
    if looks_numeric cell then String.make gap ' ' ^ cell
    else cell ^ String.make gap ' '
  in
  let line () =
    Array.iter (fun w -> Format.fprintf fmt "+%s" (String.make (w + 2) '-')) widths;
    Format.fprintf fmt "+@."
  in
  let emit row =
    List.iteri (fun i cell -> Format.fprintf fmt "| %s " (pad i cell)) row;
    Format.fprintf fmt "|@."
  in
  line ();
  emit t.header;
  line ();
  List.iter emit rows;
  line ()

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let to_csv t =
  let line row = String.concat "," (List.map csv_escape row) in
  String.concat "\n" (line t.header :: List.map line (rows_in_order t)) ^ "\n"

let cell_int = string_of_int

let cell_float ?(decimals = 2) v =
  if Float.is_nan v then "nan"
  else if Float.abs v >= 1e7 || (Float.abs v < 1e-3 && v <> 0.) then
    Printf.sprintf "%.3g" v
  else Printf.sprintf "%.*f" decimals v

let cell_bool b = if b then "yes" else "no"
