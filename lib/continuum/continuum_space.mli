(** The continuum instance of the engine's space layer: agents at float
    coordinates in a reflecting box, moving by isotropic Gaussian steps
    (discretised Brownian motion), connected within Euclidean distance
    [radius].

    Close pairs come from {!Spatial}'s bucket table, the plain grid's
    index: each rebuild loads every agent's cell, of side [>= radius]
    (capped at ~[2 sqrt agents] cells per row so memory stays
    O(agents) for any radius), and {!Spatial.iter_close_points} tests
    the points within adjacent cells. Nothing is allocated per step
    beyond the moves' boxed floats. A zero radius yields no pairs at
    all, even for coinciding agents — the same degenerate semantics as
    the pre-refactor [Continuum.components]. *)

type pos = {
  xs : float array;
  ys : float array;
}

include Mobile_network.Space.S with type pos := pos

val create : box_side:float -> radius:float -> sigma:float -> agents:int -> t
(** [agents] sizes the index (runs may use fewer agents; more reallocate
    lazily). This is the continuum's one validator; with
    {!Mobile_network.Engine.create}'s step-cap check it covers every
    parameter of a run.
    @raise Invalid_argument on a box side or [sigma] that is not
    positive and finite, a radius that is not [>= 0] (NaN included) or
    [agents <= 0]. *)

val box_side : t -> float

val radius : t -> float

val sigma : t -> float
