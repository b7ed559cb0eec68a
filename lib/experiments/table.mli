(** Plain-text table rendering for experiment output.

    Cells are strings; the renderer sizes each column to its widest cell
    and right-aligns cells that parse as numbers (matching how the
    paper-style tables read). Also exports CSV for downstream plotting. *)

type t

val create : header:string list -> t
(** @raise Invalid_argument on an empty header. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the arity differs from the header. *)

val render : Format.formatter -> t -> unit
(** Boxed, aligned text table. *)

val to_csv : t -> string
(** RFC-4180-style CSV (quotes cells containing commas/quotes). *)

(** {1 Cell formatting helpers} *)

val cell_int : int -> string

val cell_float : ?decimals:int -> float -> string
(** Default 2 decimals; wide-range values fall back to [%.3g]. *)

val cell_bool : bool -> string
(** ["yes"] / ["no"]. *)
