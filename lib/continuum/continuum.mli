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
    [lambda_c ≈ 1.436 / r²] (agents per unit area);
    {!Mobile_network.Theory.continuum_critical_radius} inverts this for
    a given density, and [Mobile_network.Percolation.Make (Space)]
    measures the giant fraction around it.

    A run is [Mobile_network.Engine.Make (Space)] on
    [Mobile_network.Engine.default_spec]: the grid engine's step loop,
    phase metrics and series recording, with the Brownian box supplying
    mobility and the close-pair index. {!Space.create} validates the
    box. *)

(** The {!Mobile_network.Space.S} instance: float positions, Gaussian
    moves, reflecting box, radius-bucket close pairs. *)
module Space = Continuum_space
