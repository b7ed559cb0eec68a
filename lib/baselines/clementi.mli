(** The dense-regime baseline of Clementi, Monti, Pasquale and Silvestri
    ([7, 8] in the paper's §1.1), built here as the comparison system the
    paper positions itself against.

    Their model differs from the paper's in every load-bearing respect:
    - {b density}: the number of agents is linear in the number of grid
      nodes ([k = Θ(n)]), not decoupled from it;
    - {b mobility}: at each step an agent {e jumps} to a uniformly random
      node within distance [rho] of its position — not a neighbour walk;
    - {b exchange}: an agent exchanges with all agents within distance
      [R], one hop per time step (information travels at speed ~[R]).

    Their results: [T_B = Θ(√n / R)] w.h.p. when [rho = O(R)], and
    [T_B = O(√n / rho + log n)] when [rho] dominates — so in the dense
    regime the broadcast time {e does} depend on the transmission radius,
    which is exactly the behaviour the paper proves disappears below the
    percolation point. Experiment X2 reproduces that contrast.

    Since the Space/Exchange/Engine refactor this simulator is the
    {!Mobile_network.Grid_space} instance of the shared engine with the
    {!Walk.Jump} kernel and the single-hop exchange mechanism — it
    inherits phase metrics and series recording (the island and
    components columns stay at 0 and -1: their model has no component
    statistic and the dense pair set makes the DSU build expensive, so
    the spec turns it off).
    Reports are byte-identical to the pre-refactor implementation. *)

type config = {
  side : int;
  agents : int;  (** use [k = Θ(side²)] to honour the model's regime *)
  big_r : int;  (** transmission radius R *)
  rho : int;  (** jump radius ρ *)
  seed : int;
  trial : int;
  max_steps : int;
}

type outcome =
  | Completed
  | Timed_out

type report = {
  outcome : outcome;
  steps : int;
  informed : int;
}

val jump : Grid.t -> Prng.t -> int -> Grid.node -> Grid.node
(** [jump grid rng rho v]: one transition of the jump kernel — uniform
    over the Manhattan ball of radius [rho] around [v] intersected with
    the grid. An alias for [Walk.step grid (Walk.Jump rho) rng v]. *)

val broadcast : ?metrics:Obs.Sink.t -> ?series:Obs.Series.t -> config -> report
(** Single-rumor broadcast from a random source under the
    jump-and-exchange dynamics. Deterministic given [(seed, trial)].
    [metrics] (default the ambient sink) receives the engine's
    per-phase timings; [series] (default none) a per-step
    {!Obs.Series} recorder, whose theory-residual column uses the
    grid's [n = side²].
    @raise Invalid_argument on non-positive [agents]/[side], negative
    radii or a negative step cap. *)
