(** Minimal JSON document model and printer.

    Just enough JSON for metric snapshots, kept in-tree so [obs] stays
    dependency-free. The printer is deterministic: it emits members in
    the order given (snapshots pre-sort their keys), integers without a
    fractional part, and floats with ["%.17g"] (round-trip exact).
    Reading goes through {!Pjson}, the one parser: {!parse} is
    {!Pjson.parse} followed by {!strip}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

val to_string : t -> string
(** Compact single-line rendering. *)

val to_string_pretty : t -> string
(** Two-space indented rendering (what [--metrics FILE] writes). *)

val parse : string -> (t, string) result
(** Whole-input parse; trailing non-whitespace is an error. Numbers
    without ['.'], ['e'] or ['E'] parse as [Int]. Errors read
    ["line:col: JSON parse error: message"]. *)

val strip : Pjson.t -> t
(** Erase a positioned document's positions. *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing field or non-object. *)
