(** The engine layer: the generic move → index → components → exchange →
    observe step loop, parameterised by a {!Space.S}.

    {!Make} supplies everything the four concrete simulators used to
    duplicate: seed mixing and per-agent stream splitting, uniform
    placement, source selection, the time-0 exchange (§2: [G_0] already
    floods), the step loop with per-phase {!Obs} timers and series
    recording, coverage/frontier tracking, the protocol stopping
    predicates and the run record. A concrete simulator is then a space
    instance plus a {!spec}. {!Simulation} adds the grid's {!Config.t}
    (Clementi et al.'s dense baseline included: the {!Walk.Jump} kernel
    with [Single_hop] exchange); the floor plans and the continuum box
    are [Make (Barriers.Domain_space)] and [Make (Continuum.Space)] run
    on {!default_spec}, with no wrapper. Every run returns {!report}: it
    is the only record of how a run ended ({!Simulation.report} is an
    alias of it).

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
(** Single-source broadcast with component flooding and no faults;
    override fields as needed. *)

val series_columns : string list
(** The column set every engine records into an attached {!Obs.Series}:
    [informed], [frontier] ({!Make.frontier_x}), [components] (the
    step graph's component count, singletons included; [-1] for
    predator–prey only, which has no island statistic), [max_island], [covered] ({!Make.covered_count}), [theory_residual]
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
    count, frontier and coverage never decrease. A [components] column
    holds [-1] exactly for predator–prey (a ["protocol"] meta starting
    [predator-prey]; without that meta [-1] passes) and otherwise at
    least 1.
    When the export's ["meta"] carries them, [population] bounds the
    informed count, the largest island and the component count, and a
    largest island of [s] leaves room for at most [population - s]
    other components ([max_island <= population - components + 1]);
    [side] bounds the frontier ([-1 <= x < side]) and [nodes] the
    coverage. At stride 1 a
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
    space:S.t ->
    spec ->
    t
  (** [metrics] (default {!Obs.Sink.ambient}) selects where per-phase
      timings go; against the null sink instrumentation performs no clock
      reads and no allocation. Against a recording sink the engine
      observes one sample per executed step into [sim.phase.move_ns],
      [sim.phase.index_ns], [sim.phase.components_ns],
      [sim.phase.exchange_ns] and [sim.phase.record_ns], and increments
      [sim.steps] ([sim.runs] counts engine instances). A phase a step
      does not run records nothing: [components] runs only when the
      exchange floods over the union-find or faults filter the pairs,
      [exchange] not for cover walks. In clique mode (below) no step
      records a [components] sample. Every space
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
      each step and once for the initial state. The theory-residual
      column's [T_B = n/√k] ramp takes [n] from the space's
      {!Space.S.theory_n}.

      {b Clique mode.} When the space's components are cliques
      ({!Space.S.cliques}: the grid or a floor plan at radius 0) and
      the fault plan is empty, the engine allocates no union-find. One
      hop informs a whole component, so broadcast, frog and
      broadcast-cover take the one-hop body under either mechanism,
      through a pair visitor built here (a step allocates nothing), and
      the island statistics come from the space's groups
      ({!Space.S.fold_group_sizes}). Results are those of the
      union-find path. Gossip floods keep the union-find (one-hop
      gossip costs O(m²) set unions on a node of m agents), and so does
      any non-empty fault plan: loss removes edges inside a node, and a
      component stops being a clique. Series recording, like the other two
      instruments, is pure observation: results are byte-identical with
      a recorder attached or not, and passing {!Obs.Series.null} is the
      same as passing nothing.
      @raise Invalid_argument on non-positive [agents], a negative
      [max_steps], or an out-of-range [source]/[sources]. The space's
      own [create] checks its parameters; {!Simulation.create}
      validates a whole {!Config.t} first with its own messages. *)

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
  (** The largest component of the last step's graph; 0 for
      predator–prey. A step whose exchange floods over the union-find
      builds the components anyway; after any other exchange the first
      read builds them from the step's pairs (O(edges), no allocation,
      no phase sample). In clique mode it is the largest group on one
      node, or 1 (linear in the agents on a shared node, no
      allocation). *)

  val island_sizes : t -> int array
  (** Component sizes of the last step's graph, built on first read like
      {!max_island} (in clique mode: the groups, then a 1 for every
      agent alone); empty for predator–prey. O(population);
      allocates. *)

  val covered_count : t -> int

  val live_preys : t -> int

  val present_count : t -> int
  (** Agents currently present (population minus churn departures);
      [population t] when the plan has no churn. *)

  val is_done : t -> bool
end
