(** Continuous-space mobile geometric graphs — the model of Peres,
    Sinclair, Sousi and Stauffer ([25], SODA 2011), whose results the
    paper "complements" (§1): [k] agents follow independent Brownian
    motions in a box, two agents are connected when their Euclidean
    distance is at most [r], and a rumor floods a connected component
    instantly. Above the continuum percolation density their broadcast
    time is polylogarithmic in [k]; the paper proves the grid analogue
    below percolation is [Θ~(n/√k)] instead.

    Discretisation: Brownian motion is simulated in time steps of
    isotropic Gaussian increments with standard deviation [sigma] per
    coordinate, reflected at the box walls (reflection preserves the
    uniform stationary law, mirroring the lazy walk's uniformity on the
    grid). All randomness is drawn from splittable {!Prng} streams, so
    runs are deterministic given [(seed, trial)].

    The continuum (Gilbert disk) percolation threshold is at intensity
    [lambda_c ≈ 1.436 / r²] (agents per unit area); {!critical_radius}
    inverts this for a given density.

    Since the Space/Exchange/Engine refactor this simulator is a thin
    wrapper over {!Mobile_network.Engine} instantiated at {!Space}: the
    same step loop, phase metrics and series recording as the grid
    engine, with the Brownian box supplying mobility and the
    close-pair index, and it returns the engine's run record. Results are
    byte-identical to the standalone implementation it replaced (same
    seeds, same streams). *)

(** The {!Mobile_network.Space.S} instance: float positions, Gaussian
    moves, reflecting box, radius-bucket close pairs. *)
module Space = Continuum_space

type config = {
  box_side : float;  (** side length [L] of the square box *)
  agents : int;  (** k *)
  radius : float;  (** connection radius (Euclidean) *)
  sigma : float;  (** per-step, per-coordinate Brownian increment std *)
  seed : int;
  trial : int;
  max_steps : int;
}

val critical_radius : box_side:float -> agents:int -> float
(** The Gilbert-graph percolation radius for [agents] uniform points in
    the box: [sqrt (1.436 / lambda)] with [lambda = agents / box_side²].
    @raise Invalid_argument on non-positive arguments. *)

val giant_fraction :
  Prng.t -> box_side:float -> agents:int -> radius:float -> trials:int ->
  float
(** Mean largest-component fraction over fresh uniform placements —
    the continuum order parameter. *)

val broadcast :
  ?metrics:Obs.Sink.t -> ?series:Obs.Series.t -> config ->
  Mobile_network.Engine.report
(** Single-rumor broadcast from a uniformly chosen source under
    reflected-Brownian dynamics with instant component flooding; the
    report's [covered] is 0.
    [metrics] (default the ambient sink) receives the engine's
    per-phase timings, exactly as for {!Mobile_network.Simulation};
    [series] (default none) a per-step {!Obs.Series} recorder, whose
    theory-residual column uses [n = box_side²] (the box area, the
    continuum analogue of the grid's node count).
    @raise Invalid_argument on non-positive box/agents/sigma, negative
    radius or negative step cap. *)
