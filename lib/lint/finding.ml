type rule =
  | Determinism
  | Concurrency
  | Poly_compare
  | Layering
  | Io
  | Alloc
  | Unsafe
  | Unused_export

let all_rules =
  [
    Determinism; Concurrency; Poly_compare; Layering; Io; Alloc; Unsafe;
    Unused_export;
  ]

let rule_tag = function
  | Determinism -> "determinism"
  | Concurrency -> "concurrency"
  | Poly_compare -> "poly-compare"
  | Layering -> "layering"
  | Io -> "io"
  | Alloc -> "alloc"
  | Unsafe -> "unsafe"
  | Unused_export -> "unused-export"

let rule_of_tag = function
  | "determinism" -> Some Determinism
  | "concurrency" -> Some Concurrency
  | "poly-compare" -> Some Poly_compare
  | "layering" -> Some Layering
  | "io" -> Some Io
  | "alloc" -> Some Alloc
  | "unsafe" -> Some Unsafe
  | "unused-export" -> Some Unused_export
  | _ -> None

let rule_index = function
  | Determinism -> 0
  | Concurrency -> 1
  | Poly_compare -> 2
  | Layering -> 3
  | Io -> 4
  | Alloc -> 5
  | Unsafe -> 6
  | Unused_export -> 7

type t = {
  file : string;  (* path relative to the repo root, e.g. lib/stats/stats.ml *)
  line : int;  (* 1-based *)
  col : int;  (* 0-based, as the compiler prints them *)
  rule : rule;
  message : string;
}

let make ~file ~line ~col ~rule message = { file; line; col; rule; message }

(* Deterministic report order: path, then position, then rule. *)
let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = Int.compare (rule_index a.rule) (rule_index b.rule) in
        if c <> 0 then c else String.compare a.message b.message

let to_string t =
  Printf.sprintf "%s:%d:%d: [%s] %s" t.file t.line t.col (rule_tag t.rule)
    t.message

let to_json t =
  Obs.Json.Assoc
    [
      ("file", Obs.Json.String t.file);
      ("line", Obs.Json.Int t.line);
      ("col", Obs.Json.Int t.col);
      ("rule", Obs.Json.String (rule_tag t.rule));
      ("message", Obs.Json.String t.message);
    ]
