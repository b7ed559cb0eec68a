(** Report rendering, JSON export + structural validation. *)

val schema : string
(** ["mobilint/1"] — the [--json] document schema tag. *)

val sort : Finding.t list -> Finding.t list
(** Deterministic report order (also dedups identical findings). *)

val to_text : Finding.t list -> string
(** One [file:line:col: [rule] message] line per finding. *)

val to_json : root:string -> Finding.t list -> Obs.Json.t

val validate : Obs.Json.t -> (unit, string) result
(** Structural check of a [--json] document: schema tag, count/by_rule
    consistency, per-finding field types, known rule tags. *)
