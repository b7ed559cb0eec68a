(** The scenario compiler front-end: parse → validate → desugar.

    The pipeline mirrors a compiler's (the catala pattern): a positioned
    parse over {!Obs.Pjson} produces the typed {!Ast.t}, validation
    checks every field with a [file:line:col]-anchored diagnostic at the
    offending value, and desugaring expands the sweep axes into the
    concrete {!Ast.cell} cross product plus the canonical hash that keys
    the result cache. Phases accumulate diagnostics instead of stopping
    at the first — a malformed file reports every independent problem in
    one pass, in source order. *)

(** A compiled scenario: the validated AST plus everything the service
    needs to run it. *)
type compiled = {
  ast : Ast.t;
  hash : string;  (** {!Ast.hash} of the validated AST *)
  cells : Ast.cell list;  (** the desugared cross product, fixed order *)
  seed : int;
  trials : int;
      (** replicates per cell; the run matrix is
          [cells x [0 .. trials-1]] *)
}

val total_runs : compiled -> int
(** [List.length cells * trials]. *)

val compile : ?filename:string -> string -> (compiled, string list) result
(** The full pipeline: parsing with field-level structural checks
    (unknown fields, wrong types, malformed protocol/kernel strings),
    then semantic validation (positive
    sizes, non-empty axes, grid-only fields on non-grid spaces, per-cell
    {!Mobile_network.Config.validate}, fault-plan agent ranges), then
    desugaring. Diagnostics are formatted
    [file:line:col: scenario: message]. [Ok] implies every cell's
    configuration is accepted by the engine. This is what
    [mobisim scenario check] runs. *)

val compile_ast : Ast.t -> (compiled, string list) result
(** Validate + desugar an already-built AST (diagnostics without
    positions); [mobisim simulate] compiles its flag-built one-cell
    scenario through this. *)
