(** The engine layer: the generic move → index → components → exchange →
    observe step loop, parameterised by a {!Space.S}.

    {!Make} supplies everything the four concrete simulators used to
    duplicate: seed mixing and per-agent stream splitting, uniform
    placement, source selection, the time-0 exchange (§2: [G_0] already
    floods), the step loop with per-phase {!Obs} timers and series
    recording, coverage/frontier tracking, the protocol stopping
    predicates and the run record. A concrete simulator is then a space
    instance plus a {!spec} — see {!Simulation} (grid),
    [Continuum.broadcast], [Baselines.Clementi.broadcast] and
    [Barriers.Barrier_sim.broadcast], all thin wrappers over this
    functor. Every one of them returns {!report}: it is the only record
    of how a run ended ({!Simulation.report} is an alias of it).

    Determinism contract: for a fixed space, [spec.seed]/[spec.trial]
    fully determine the run. The draw order is {e observable state} —
    master stream from {!Prng.mix_seed}, one {!Prng.split} per
    individual, then the space's placement draws, then source selection —
    and is pinned by the golden tests; do not reorder. *)

type outcome =
  | Completed  (** the protocol's stopping predicate became true *)
  | Timed_out  (** the step cap was reached first *)

type report = {
  outcome : outcome;
  steps : int;
      (** number of steps executed; on [Completed] this is the protocol's
          completion time ([T_B], [T_G], [T_C], cover or extinction
          time) *)
  informed : int;  (** final informed/caught count *)
  covered : int;  (** final covered-node count (0 when not tracked) *)
}

(** The space-independent run parameters. *)
type spec = {
  agents : int;  (** k *)
  protocol : Protocol.t;
  exchange : Exchange.mechanism;
  seed : int;
  trial : int;
  source : int option;  (** explicit source agent (broadcast-like only) *)
  sources : int;  (** number of initially informed agents *)
  max_steps : int;  (** resolved step cap (callers apply their defaults) *)
  track_islands : bool;
      (** build components (DSU) even when the exchange mechanism only
          needs raw pairs, so {!Make.max_island}/{!Make.island_sizes}
          stay meaningful. Flooding mechanisms always build components;
          single-hop engines that never read the island metric (the
          Clementi dense baseline, where the pair set is huge) turn this
          off to skip the per-pair union work. *)
  faults : Faults.Plan.t;
      (** the fault adversary ({!Faults.Plan.empty} for none). An empty
          plan allocates no fault state and leaves every draw — and
          hence every result — byte-identical to a faultless build; a
          non-empty plan filters each step's visibility edges through
          loss/outage draws from the plan's own streams, masks churned
          agents out of movement and the index, and applies silent/deaf
          roles during exchange. Silent/deaf roles require a
          single-rumor broadcast protocol (Broadcast, Frog,
          Broadcast_cover). *)
}

val default_spec : agents:int -> seed:int -> trial:int -> max_steps:int -> spec
(** Single-source broadcast with component flooding and no recording —
    the satellite engines' common case; override fields as needed. *)

val series_columns : string list
(** The column set every engine records into an attached {!Obs.Series}:
    [informed], [frontier] ({!Make.frontier_x}), [components] (DSU set
    count; [-1] on step paths that never build components),
    [max_island], [covered] ({!Make.covered_count}), [theory_residual]
    (informed minus the Θ̃(n/√k) linear ramp [round (k * min 1 (t /
    T_B))] with [T_B = Theory.broadcast_theta]), the five per-phase
    [_ns] columns, and cumulative-since-creation [minor_words] /
    [gc_minor] / [gc_major]. Create recorders with
    [Obs.Series.create ~columns:series_columns ()]; a capacity above
    the run's step count records every step (see {!Obs.Series}). *)

val validate_series : Obs.Json.t -> (unit, string) result
(** Re-check the engine's invariants on an exported series (the
    combined form {!Obs.Series.parse} returns), for any series with the
    [informed], [frontier] and [covered] columns; others pass
    unchecked. Row [i] holds step [i * stride] (no gaps), and informed
    count, frontier and coverage never decrease.
    When the export's ["meta"] carries them, [population] bounds the
    informed count and the largest island, [side] the frontier
    ([-1 <= x < side]) and [nodes] the coverage. At stride 1 a
    ["completed"] flag must agree with the last row for the protocols
    where the metrics decide it ([broadcast]/[frog]: everyone informed;
    [broadcast-cover]/[cover-walks]: every node covered). Errors name
    the offending row and its step. *)

module Make (S : Space.S) : sig
  type t

  val create :
    ?metrics:Obs.Sink.t ->
    ?tracer:Obs.Tracer.t ->
    ?series:Obs.Series.t ->
    ?theory_n:int ->
    space:S.t ->
    spec ->
    t
  (** [metrics] (default {!Obs.Sink.ambient}) selects where per-phase
      timings go; against the null sink instrumentation performs no clock
      reads and no allocation. Against a recording sink the engine
      observes one sample per executed step into [sim.phase.move_ns],
      [sim.phase.index_ns], [sim.phase.components_ns],
      [sim.phase.exchange_ns] and [sim.phase.record_ns], and increments
      [sim.steps] ([sim.runs] counts engine instances) — every space
      shares the same instrument names, so continuum or barrier runs
      profile exactly like grid runs.

      [tracer] (default {!Obs.Tracer.ambient}) additionally records the
      timeline: per step one duration event per phase ([sim.phase.move],
      [.index], [.components], [.exchange], [.record]) plus a
      [sim.informed] counter sample and [gc.minor]/[gc.major] STW cycle
      instants, and per {!run} one trial-tagged [sim.run] span — all on
      the executing domain's ring. Disabled tracing, like the null sink,
      costs nothing and allocates nothing.

      [series] (default none) attaches a per-step timeseries recorder
      created over {!series_columns}: one row per step (decimated by
      {!Obs.Series} once its capacity fills), committed at the end of
      each step and once for the initial state. [theory_n] is the node
      count [n] the theory-residual column's [T_B = n/√k] ramp uses;
      it defaults to the space's [cover_cells] (the grid's [n]; pass it
      explicitly for spaces whose cover-cell count is not the paper's
      [n], e.g. the continuum). Series recording, like the other two
      instruments, is pure observation: results are byte-identical with
      a recorder attached or not, and passing {!Obs.Series.null} is the
      same as passing nothing.
      @raise Invalid_argument on non-positive [agents], a negative
      [max_steps], or an out-of-range [source]/[sources]; callers with
      richer configs validate those first with their own messages. *)

  val step : t -> unit
  (** Advance one time step; no-op once {!is_done}. *)

  val run : ?on_step:(t -> unit) -> t -> report
  (** Step until done or [spec.max_steps]. [on_step] fires after every
      executed step (not for the initial state). *)

  (** {1 Inspection} *)

  val spec : t -> spec

  val space : t -> S.t

  val time : t -> int

  val population : t -> int
  (** [k], plus preys for predator–prey. *)

  val informed_count : t -> int

  val informed : t -> bool array
  (** The live informed flags (not a copy; do not mutate). *)

  val rumors : t -> Rumor_set.t array
  (** Live gossip rumor sets; [[||]] for single-rumor protocols. *)

  val pos : t -> S.pos
  (** The live bulk position state (not a copy). *)

  val source : t -> int option

  val frontier_x : t -> int

  val max_island : t -> int

  val island_sizes : t -> int array
  (** Component sizes at the last exchange; empty for predator–prey.
      O(population); allocates. *)

  val covered_count : t -> int

  val live_preys : t -> int

  val present_count : t -> int
  (** Agents currently present (population minus churn departures);
      [population t] when the plan has no churn. *)

  val fault_state : t -> Faults.t option
  (** The live adversary state, [None] for an empty plan. Read-only
      inspection for tests and tooling. *)

  val is_done : t -> bool
end
