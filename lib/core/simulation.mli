(** The discrete-time simulation engine for the paper's model (§2).

    One step of the process:
    + every {e active} agent performs one transition of the mobility
      kernel (all agents for broadcast/gossip; only informed agents in
      the Frog model; only uncaught individuals in predator–prey);
    + the visibility graph [G_t(r)] is rebuilt from the new positions;
    + information is exchanged — for flooding protocols the rumor set of
      every agent becomes the union over its connected component (the
      paper's "radio is faster than motion" rule); for predator–prey,
      each prey within range of a predator is caught;
    + metrics are updated (informed count, rightmost informed coordinate
      [x(t)], largest island, coverage).

    Time 0 already performs an exchange on the initial uniform placement,
    so a broadcast among [k = 1] agents completes in 0 steps.

    The engine is deterministic: all randomness derives from
    [(config.seed, config.trial)] via splittable streams, one per agent,
    so results do not depend on evaluation order. *)

type t

(** Why a run stopped. *)
type outcome = Engine.outcome =
  | Completed  (** the protocol's stopping predicate became true *)
  | Timed_out  (** the step cap was reached first *)

(** How a run ended: the engine's one run record. *)
type report = Engine.report = {
  outcome : outcome;
  steps : int;
  informed : int;
  covered : int;
}

val create :
  ?metrics:Obs.Sink.t ->
  ?series:Obs.Series.t ->
  ?full_rebuild:bool ->
  Config.t ->
  t
(** [full_rebuild] is accepted and ignored: the engine rebuilds the
    visibility-graph components from scratch every step, so there is no
    other path to select. It remains only for existing callers.

    [metrics] (default {!Obs.Sink.ambient}) selects where per-phase
    timings go. Against the null sink instrumentation is free: the
    per-step path performs no clock reads and no allocation. Against a
    recording sink the engine observes, per executed step, one sample
    into each of the phase histograms [sim.phase.move_ns],
    [sim.phase.index_ns] (spatial-index rebuild),
    [sim.phase.components_ns] (DSU build + island statistic; only on
    steps that flood over the DSU or filter pairs through faults, so a
    fault-free radius-0 run, whose components are the nodes' groups
    and need no DSU, records none — see {!Engine.Make.create}'s clique
    mode),
    [sim.phase.exchange_ns] (flood / single-hop / catch) and
    [sim.phase.record_ns] (frontier, coverage), and increments
    the [sim.steps] counter ([sim.runs] counts simulations). All
    simulations sharing a registry aggregate into the same histograms —
    that is how a sweep's trials produce one per-phase cost profile.
    Metrics are pure observation: they never touch the random streams
    or the results.

    [series] (default none) attaches a per-step {!Obs.Series} recorder
    created over {!Engine.series_columns}; the theory-residual column
    uses the grid's [n = side²]. Like metrics, recording never touches
    the random streams or the results.
    @raise Invalid_argument if {!Config.validate} rejects the
    configuration. *)

(** {1 Inspection} *)

val config : t -> Config.t

val grid : t -> Grid.t

val time : t -> int

val population : t -> int
(** Number of walking individuals ([k], plus preys for predator–prey). *)

val informed_count : t -> int
(** Informed agents; for predator–prey, the number of caught preys. *)

val is_informed : t -> int -> bool
(** Whether agent [i] is informed (for predator–prey: [i] is a predator,
    or a caught prey). @raise Invalid_argument if out of range. *)

val rumors_known : t -> int -> int
(** Number of distinct rumors agent [i] knows. For single-rumor
    protocols this is 0 or 1. *)

val position : t -> int -> Grid.node
(** Current position of agent [i]. *)

val positions : t -> Grid.node array
(** Copy of all current positions (index = agent id). *)

val source : t -> int option
(** The initially informed agent, for broadcast-like protocols. *)

val frontier_x : t -> int
(** Rightmost x-coordinate of the informed area so far; [-1] when no
    agent is informed (gossip/cover protocols track the rumor-0
    holder). *)

val max_island : t -> int
(** Largest visibility-graph component at the last exchange; 0 for
    predator–prey. *)

val island_sizes : t -> int array
(** Sizes of all visibility-graph components at the last exchange, in no
    particular order (sum = population). Empty for predator–prey, whose
    exchange does not build components. O(population); allocates. *)

val covered_count : t -> int
(** Number of grid nodes covered so far (0 when the protocol does not
    track coverage). *)

val live_preys : t -> int
(** Remaining preys (0 for non-predator protocols). *)

val present_count : t -> int
(** Agents currently present — population minus churn departures;
    equals {!population} when the config's fault plan has no churn. *)

val is_done : t -> bool

(** {1 Running} *)

val step : t -> unit
(** Advance one time step. No-op once {!is_done} (stepping a finished
    simulation is allowed and does nothing). *)

val run : ?on_step:(t -> unit) -> t -> report
(** Step until done or the step cap is hit. [on_step] fires after every
    executed step (not for the initial state). *)

val run_config :
  ?on_step:(t -> unit) ->
  ?metrics:Obs.Sink.t ->
  ?series:Obs.Series.t ->
  ?full_rebuild:bool ->
  Config.t ->
  report
(** [create] + [run]. *)

val completion_time : Config.t -> int option
(** Convenience: run and return [Some steps] on completion, [None] on
    timeout. *)
