(* Positioned JSON: the repo's one JSON reader. Json.parse is this
   parser followed by Json.strip. *)

type pos = { line : int; col : int }

let no_pos = { line = 0; col = 0 }

type t = { pos : pos; v : value }

and value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * pos * t) list

exception Parse_error of pos * string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let line = ref 1 in
  let bol = ref 0 in
  (* byte offset of the current line's start *)
  let here () = { line = !line; col = !pos - !bol + 1 } in
  let fail msg = raise (Parse_error (here (), msg)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () =
    if !pos < n && text.[!pos] = '\n' then begin
      incr line;
      bol := !pos + 1
    end;
    incr pos
  in
  let skip_ws () =
    while
      !pos < n
      && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %c, found %c" c c')
    | None -> fail (Printf.sprintf "expected %c, found end of input" c)
  in
  let literal word value =
    if
      !pos + String.length word <= n
      && String.sub text !pos (String.length word) = word
    then begin
      for _ = 1 to String.length word do
        advance ()
      done;
      value
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = text.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = text.[!pos] in
          advance ();
          match e with
          | '"' | '\\' | '/' ->
              Buffer.add_char buf e;
              loop ()
          | 'n' ->
              Buffer.add_char buf '\n';
              loop ()
          | 't' ->
              Buffer.add_char buf '\t';
              loop ()
          | 'r' ->
              Buffer.add_char buf '\r';
              loop ()
          | 'b' ->
              Buffer.add_char buf '\b';
              loop ()
          | 'f' ->
              Buffer.add_char buf '\012';
              loop ()
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub text !pos 4 in
              for _ = 1 to 4 do
                advance ()
              done;
              (match int_of_string_opt ("0x" ^ hex) with
              | None -> fail "invalid \\u escape"
              | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
              | Some code ->
                  if code < 0x800 then begin
                    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                  end
                  else begin
                    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                    Buffer.add_char buf
                      (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                  end);
              loop ()
          | c -> fail (Printf.sprintf "invalid escape \\%c" c))
      | c ->
          Buffer.add_char buf c;
          loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char text.[!pos] do
      advance ()
    done;
    let s = String.sub text start (!pos - start) in
    let has_frac = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s in
    if has_frac then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "invalid number %S" s)
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt s with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "invalid number %S" s))
  in
  let rec parse_value () =
    skip_ws ();
    let at = here () in
    let v =
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Assoc []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let key_pos = here () in
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let value = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((key, key_pos, value) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((key, key_pos, value) :: acc)
              | _ -> fail "expected , or } in object"
            in
            Assoc (members [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let rec items acc =
              let value = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (value :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (value :: acc)
              | _ -> fail "expected , or ] in array"
            in
            List (items [])
          end
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    { pos = at; v }
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing characters after JSON value";
    Ok v
  with Parse_error (at, msg) -> Error (at, msg)

let member key t =
  match t.v with
  | Assoc kvs ->
      List.find_map
        (fun (k, _, v) -> if String.equal k key then Some v else None)
        kvs
  | _ -> None

let member_key_pos key t =
  match t.v with
  | Assoc kvs ->
      List.find_map
        (fun (k, p, _) -> if String.equal k key then Some p else None)
        kvs
  | _ -> None

let keys t =
  match t.v with
  | Assoc kvs -> List.map (fun (k, p, _) -> (k, p)) kvs
  | _ -> []

let format ?filename pos msg =
  if pos.line = 0 then
    match filename with None -> msg | Some f -> Printf.sprintf "%s: %s" f msg
  else
    match filename with
    | None -> Printf.sprintf "%d:%d: %s" pos.line pos.col msg
    | Some f -> Printf.sprintf "%s:%d:%d: %s" f pos.line pos.col msg
