(** Broadcast on a domain with barriers.

    Same process as {!Mobile_network.Simulation} with the [Broadcast]
    protocol, but on a {!Domain.t}: agents walk the lazy kernel over
    free nodes, and (optionally) the visibility graph drops every edge
    whose line of sight crosses a blocked cell — mobility barriers and
    communication barriers, the two ingredients of the paper's §4
    future-work scenario.

    Deterministic given [(seed, trial)], like the core engine.

    Since the Space/Exchange/Engine refactor this simulator is the
    {!Domain_space} instance of {!Mobile_network.Engine} — it inherits
    phase metrics, series recording, the island/frontier statistics and
    the engine's run record. Results are byte-identical to the
    standalone loop it replaced. *)

type config = {
  domain : Domain.t;
  agents : int;  (** k; placed uniformly over free nodes *)
  radius : int;  (** transmission radius (Manhattan) *)
  los_blocking : bool;
      (** when [true], blocked cells also stop radio: a visibility edge
          requires {!Domain.line_of_sight} *)
  seed : int;
  trial : int;
  max_steps : int;
}

val broadcast :
  ?metrics:Obs.Sink.t -> ?series:Obs.Series.t -> config ->
  Mobile_network.Engine.report
(** Run a single-rumor broadcast from a uniformly chosen source agent;
    the report's [covered] is 0.
    [metrics] (default the ambient sink) receives the engine's
    per-phase timings; [series] (default none) a per-step {!Obs.Series}
    recorder whose theory-residual column uses [n = Domain.free_count]
    (the reachable nodes).
    @raise Invalid_argument if [agents <= 0], [radius < 0],
    [max_steps < 0], or the domain has no free node. *)
