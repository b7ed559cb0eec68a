(** A single diagnostic: where, which rule, and what to do about it. *)

type rule =
  | Determinism  (** ambient randomness, wall clocks, hash-order iteration *)
  | Concurrency  (** domains, atomics and locks outside the runtime/obs layers *)
  | Poly_compare  (** polymorphic compare/equality at a concrete unsafe type *)
  | Layering  (** a [lib/*/dune] dependency edge outside the declared DAG *)
  | Io  (** Unix socket/process primitives outside the service layer *)
  | Alloc
      (** a minor-heap allocation site reachable from a [\[@hot\]] function
          without an [\[@alloc_ok "reason"\]] justification *)
  | Unsafe
      (** an [unsafe_get]/[unsafe_set] outside the audited-unsafe module
          table, or inside it but without [\[@unsafe_invariant "..."\]] *)
  | Unused_export
      (** a value a [.mli] exports that no other compilation unit in the
          scanned tree references, unless it carries
          [\[@@seam "reason"\]] *)

val all_rules : rule list

val rule_tag : rule -> string
(** Stable machine-readable tag: ["determinism"], ["concurrency"],
    ["poly-compare"], ["layering"], ["io"], ["alloc"], ["unsafe"],
    ["unused-export"]. *)

val rule_of_tag : string -> rule option

type t = {
  file : string;  (** path relative to the repo root *)
  line : int;  (** 1-based; 0 when the finding has no position (layering) *)
  col : int;  (** 0-based, as the compiler prints them *)
  rule : rule;
  message : string;
}

val make : file:string -> line:int -> col:int -> rule:rule -> string -> t

val compare : t -> t -> int
(** Total order on (file, line, col, rule, message); report order. *)

val to_string : t -> string
(** [file:line:col: [rule] message] — the grep/editor-friendly form. *)

val to_json : t -> Obs.Json.t
