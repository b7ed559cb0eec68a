(** Percolation of the visibility graph [G_t(r)] over uniform
    placements: the giant-component fraction that separates the paper's
    sparse regime ([r < r_c], every island logarithmic) from the
    supercritical one studied by Peres et al. The [r_c] formulas
    themselves live in {!Theory}.

    One measurement serves every space: place the agents with the
    space's own [init_positions], load them into its index and union
    each close pair. A snapshot of the stationary process is a fresh
    uniform placement, since every walk here is uniform-stationary. *)

module Make (S : Space.S) : sig
  val largest_island : S.t -> Prng.t -> agents:int -> int
  (** Place [agents] agents uniformly with [S.init_positions] (drawing
      from the stream), rebuild the space's index over them and return
      the size of the largest component of their visibility graph: the
      "largest island" of Lemma 6. 0 when [agents = 0]. *)

  val giant_fraction : S.t -> Prng.t -> agents:int -> trials:int -> float
  (** Mean of [largest_island / agents] over [trials] successive
      placements, the percolation order parameter. One space (and so
      one index) serves every placement.
      @raise Invalid_argument if [agents <= 0] or [trials <= 0]. *)
end

val giant_fraction_at :
  Grid.t -> Prng.t -> k:int -> radius:int -> trials:int -> float
(** [giant_fraction] on the bounded grid at an integer radius, one
    index for all [trials] placements of [k] agents. *)

val estimate_rc : Grid.t -> Prng.t -> k:int -> trials:int -> int
(** Smallest integer radius whose mean giant fraction reaches 0.5,
    found by scanning upward from 0 (capped at twice the side). Matches
    {!Theory.percolation_radius} up to constants. *)
