(** Executes a compiled scenario against the cache.

    The run matrix is [cells × trials] in a fixed order (cells in
    {!Scenario.Ast.cells} order, trials innermost). Each run is looked
    up in the {!Store} first; only the misses are fanned out over the
    {!Runtime.Pool} (in matrix order, so submission-order determinism
    applies), cached, and then the full NDJSON body is assembled from
    the cached bytes — one line per run:

    {v {"cell":i,"hash":"<cell hash>","seed":s,"trial":t,"result":{...}} v}

    Because every line embeds the stored payload verbatim, a warm
    re-run returns exactly the bytes of the cold run, and the body is
    independent of the pool's [--jobs] level.

    With a recording sink on the store's registry the runner counts
    [service.cells.computed] (engine runs actually executed, i.e. cache
    misses that were materialised); a fully warm sweep leaves it
    untouched — the smoke test's "no engine steps on a cache hit"
    witness. *)

val run :
  ?metrics:Obs.Sink.t ->
  ?on_progress:(done_:int -> total:int -> unit) ->
  ?on_line:(string -> unit) ->
  ?series_dir:string ->
  pool:Runtime.Pool.t ->
  store:Store.t ->
  Scenario.Compile.compiled ->
  string
(** The NDJSON body (newline-terminated). [on_progress] fires once per
    run in matrix order: immediately for cache hits, on completion for
    computed runs. [metrics] (default {!Obs.Sink.null}) receives
    [service.cells.computed].

    [on_line] streams the body: each result line (newline-terminated,
    byte-identical to its line in the returned body) is delivered as
    soon as it is both persisted and preceded only by delivered lines —
    the contiguous-prefix frontier over the matrix order. Because cache
    hits fill the prefix immediately and pool results land in
    submission order, the concatenation of the streamed lines equals
    the returned body at any [--jobs], cold or warm.

    [series_dir] additionally records one per-step {!Obs.Series} for
    each cell (an extra trial-0 run, after the sweep — the cached
    result payloads and the body are unaffected) and writes
    [<series_dir>/<cell hash>.series.json] atomically. *)

val run_cell :
  ?series:Obs.Series.t ->
  ?on_step:(Mobile_network.Simulation.t -> unit) ->
  ?domain:Barriers.Domain.t ->
  Scenario.Ast.cell ->
  seed:int ->
  trial:int ->
  Mobile_network.Engine.report
(** One engine run of a compiled cell: the single per-space dispatch
    behind the service, [mobisim simulate] and
    [mobisim simulate --scenario] ([covered] is 0 off the grid).
    [series] attaches a per-step recorder (all three spaces); [on_step]
    reaches {!Mobile_network.Simulation.run_config} and is ignored on
    the non-grid spaces. A grid cell runs its {!Scenario.Ast.cell_config};
    the other two run the engine on
    {!Mobile_network.Engine.default_spec} over their space: a continuum
    cell the box of {!Scenario.Ast.continuum_geometry} with a default
    step cap of [1_000_000], a domain cell [domain] (default
    {!domain_of_cell}) with a [100 * side * side] one. *)

val domain_of_cell : Scenario.Ast.cell -> Barriers.Domain.t
(** The cell's floor plan on a bounded [side x side] grid. *)

val run_payload :
  ?series:Obs.Series.t -> Scenario.Ast.cell -> seed:int -> trial:int -> string
(** {!run_cell} rendered as the compact canonical payload
    [{"outcome":...,"steps":...,"informed":...,"covered":...}]. This is
    what the cache stores and what [mobisim simulate --scenario]
    prints. *)
