(* Rendering, machine-readable output and structural validation of that
   output (mirroring the obs metrics/trace validators). *)

let schema = "mobilint/1"

let sort findings = List.sort_uniq Finding.compare findings

let to_text findings =
  String.concat "" (List.map (fun f -> Finding.to_string f ^ "\n") findings)

let count_by_rule findings =
  List.map
    (fun rule ->
      ( Finding.rule_tag rule,
        List.length (List.filter (fun f -> f.Finding.rule = rule) findings) ))
    Finding.all_rules

let to_json ~root findings =
  Obs.Json.Assoc
    [
      ("schema", Obs.Json.String schema);
      ("root", Obs.Json.String root);
      ("count", Obs.Json.Int (List.length findings));
      ( "by_rule",
        Obs.Json.Assoc
          (List.map
             (fun (tag, n) -> (tag, Obs.Json.Int n))
             (count_by_rule findings)) );
      ("findings", Obs.Json.List (List.map Finding.to_json findings));
    ]

(* ---- structural validation ------------------------------------------- *)

let validate json =
  let ( let* ) r f = Result.bind r f in
  let str_field obj name =
    match Obs.Json.member name obj with
    | Some (Obs.Json.String s) -> Ok s
    | _ -> Error (Printf.sprintf "missing or non-string field %S" name)
  in
  let int_field obj name =
    match Obs.Json.member name obj with
    | Some (Obs.Json.Int n) -> Ok n
    | _ -> Error (Printf.sprintf "missing or non-int field %S" name)
  in
  let* s = str_field json "schema" in
  let* () =
    if String.equal s schema then Ok ()
    else Error (Printf.sprintf "schema is %S, expected %S" s schema)
  in
  let* _root = str_field json "root" in
  let* count = int_field json "count" in
  let* findings =
    match Obs.Json.member "findings" json with
    | Some (Obs.Json.List l) -> Ok l
    | _ -> Error "missing or non-array field \"findings\""
  in
  let* () =
    if List.length findings = count then Ok ()
    else Error "count does not match the length of findings"
  in
  let* by_rule =
    match Obs.Json.member "by_rule" json with
    | Some (Obs.Json.Assoc kv) -> Ok kv
    | _ -> Error "missing or non-object field \"by_rule\""
  in
  let* () =
    List.fold_left
      (fun acc (tag, v) ->
        let* () = acc in
        let* () =
          match Finding.rule_of_tag tag with
          | Some _ -> Ok ()
          | None -> Error (Printf.sprintf "unknown rule tag %S in by_rule" tag)
        in
        match v with
        | Obs.Json.Int _ -> Ok ()
        | _ -> Error (Printf.sprintf "by_rule.%s is not an int" tag))
      (Ok ()) by_rule
  in
  let* total =
    List.fold_left
      (fun acc (_, v) ->
        let* n = acc in
        match v with Obs.Json.Int m -> Ok (n + m) | _ -> Ok n)
      (Ok 0) by_rule
  in
  let* () =
    if total = count then Ok ()
    else Error "by_rule totals do not match count"
  in
  List.fold_left
    (fun acc f ->
      let* () = acc in
      let* file = str_field f "file" in
      let* line = int_field f "line" in
      let* _col = int_field f "col" in
      let* tag = str_field f "rule" in
      let* _msg = str_field f "message" in
      let* () =
        match Finding.rule_of_tag tag with
        | Some _ -> Ok ()
        | None ->
            Error (Printf.sprintf "unknown rule tag %S in a finding" tag)
      in
      if line < 0 then Error (Printf.sprintf "%s: negative line" file)
      else Ok ())
    (Ok ()) findings
