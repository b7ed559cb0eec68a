(** Positioned JSON: the repo's one JSON reader.

    Every value and every object key carries its source position, so
    the front ends that read JSON input (scenario files, fault plans,
    [bench-check] inputs, daemon requests) report [file:line:col] on
    every diagnostic. They read typed fields through the readers below,
    whose errors are positioned at the offending value and read
    ["NAME must be TYPE"]; each front end decides what an error does
    (collect it, stop, exit or answer it). {!Json.parse} is this parser
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

val unknown_keys : string list -> t -> (string * pos) list
(** The keys of an object that are not in the known list, with their
    positions, in source order ([[]] for non-objects). *)

(** {2 Typed readers}

    [read name j] reads [j] as one type. The error is positioned at [j]
    and reads ["NAME must be TYPE"], with [name] as given (a front end
    passes the field's name as its users spell it) and TYPE one of "an
    integer", "a number" ({!number} accepts an [Int] too), "a string",
    "a boolean", "a list" ({!list} returns the items) or "an object"
    (read an object's fields with {!member}). *)

type 'a read = string -> t -> ('a, pos * string) result

val int : int read
val number : float read
val string : string read
val bool : bool read
val list : t list read
val obj : unit read

val nullable : 'a read -> 'a option read
(** [Null] is [None]; anything else goes through the reader, whose error
    gains [" or null"] ("NAME must be an integer or null"). *)

val format : ?filename:string -> pos -> string -> string
(** [format ~filename pos msg] is ["file:line:col: msg"], dropping the
    [file:] part without [filename] and the whole prefix when [pos] is
    {!no_pos} — so one error path serves positioned and plain input. *)
