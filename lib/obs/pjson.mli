(** Positioned JSON: the repo's one JSON reader.

    Every value and every object key carries its source position, so
    the compiler-style front-ends (scenario files, fault plans) report
    [file:line:col] on every diagnostic. {!Json.parse} is this parser
    followed by {!Json.strip}, which erases the positions: anything
    written against the plain model (printers, validators) reads the
    same documents with the same grammar and number semantics. *)

type pos = { line : int; col : int }
(** 1-based line and column (columns count bytes, like the compiler). *)

val no_pos : pos
(** [{line = 0; col = 0}] — the position of diagnostics that never came
    from source text (a programmatically built scenario). {!format}
    omits it. *)

type t = { pos : pos; v : value }

and value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * pos * t) list
      (** members as [(key, key position, value)], in source order *)

val parse : string -> (t, pos * string) result
(** Whole-input parse; trailing non-whitespace is an error. Numbers
    without ['.'], ['e'] or ['E'] parse as [Int] (as [Float] when too
    large for [int]). The error carries the position where the lexer
    or parser stopped. *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing field or non-object. *)

val member_key_pos : string -> t -> pos option
(** Position of the {e key} of a field, for "this field is the problem"
    diagnostics. *)

val keys : t -> (string * pos) list
(** Keys of an object with their positions ([[]] for non-objects). *)

val format : ?filename:string -> pos -> string -> string
(** [format ~filename pos msg] is ["file:line:col: msg"], dropping the
    [file:] part without [filename] and the whole prefix when [pos] is
    {!no_pos} — so one error path serves positioned and plain input. *)
