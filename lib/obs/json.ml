type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(* --- printing ------------------------------------------------------------ *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_float buf f =
  if Float.is_nan f then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  else Buffer.add_string buf (Printf.sprintf "%.17g" f)

(* [indent < 0]: compact. Otherwise pretty, two spaces per level. *)
let rec emit buf ~indent ~level t =
  let pretty = indent >= 0 in
  let pad n = if pretty then Buffer.add_string buf (String.make (2 * n) ' ') in
  let newline () = if pretty then Buffer.add_char buf '\n' in
  let seq open_ close items each =
    match items with
    | [] ->
        Buffer.add_char buf open_;
        Buffer.add_char buf close
    | items ->
        Buffer.add_char buf open_;
        newline ();
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              newline ()
            end;
            pad (level + 1);
            each item)
          items;
        newline ();
        pad level;
        Buffer.add_char buf close
  in
  let scalar = function
    | Null | Bool _ | Int _ | Float _ | String _ -> true
    | List _ | Assoc _ -> false
  in
  match t with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | String s -> escape buf s
  | List items when pretty && List.for_all scalar items ->
      (* all-scalar lists (e.g. a histogram bucket's [edge, count] pair)
         stay on one line even in pretty mode *)
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ", ";
          emit buf ~indent:(-1) ~level:0 item)
        items;
      Buffer.add_char buf ']'
  | List items ->
      seq '[' ']' items (fun item ->
          emit buf ~indent ~level:(level + 1) item)
  | Assoc members ->
      seq '{' '}' members (fun (k, v) ->
          escape buf k;
          Buffer.add_char buf ':';
          if pretty then Buffer.add_char buf ' ';
          emit buf ~indent ~level:(level + 1) v)

let render ~indent t =
  let buf = Buffer.create 1024 in
  emit buf ~indent ~level:0 t;
  Buffer.contents buf

let to_string t = render ~indent:(-1) t
let to_string_pretty t = render ~indent:2 t

(* --- parsing ------------------------------------------------------------- *)

(* Pjson is the one reader; the plain tree is its output minus positions. *)
let rec strip (j : Pjson.t) =
  match j.Pjson.v with
  | Pjson.Null -> Null
  | Pjson.Bool b -> Bool b
  | Pjson.Int i -> Int i
  | Pjson.Float f -> Float f
  | Pjson.String s -> String s
  | Pjson.List l -> List (List.map strip l)
  | Pjson.Assoc kvs -> Assoc (List.map (fun (k, _, v) -> (k, strip v)) kvs)

let parse text =
  match Pjson.parse text with
  | Ok j -> Ok (strip j)
  | Error (pos, msg) -> Error (Pjson.format pos ("JSON parse error: " ^ msg))

let member key = function
  | Assoc members -> List.assoc_opt key members
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None
