(** X2 — the dense-regime baseline (§1.1): radius dependence appears
    exactly where the paper says it should.

    Clementi et al. prove [T_B = Θ(√n / R)] for dense systems
    ([k = Θ(n)]) with one-hop-per-step exchange at radius [R] — the
    broadcast time is governed by the transmission radius. The paper's
    headline result is that below the percolation point this dependence
    vanishes. The experiment runs both systems side by side:

    - baseline, dense, sweep [R]: log-log slope of [T_B] vs [R] near −1.
      Their model is the grid engine with the [Walk.Jump R] kernel and
      [Single_hop] exchange, an ordinary {!Mobile_network.Config};
    - the paper's model, sparse, sweep [r < r_c]: near-flat.

    One table, the two regimes, opposite behaviour. *)

val run : ?quick:bool -> seed:int -> unit -> Exp_result.t
