(** The visibility graph [G_t(r)] (§2): vertices are agents, an edge joins
    two agents whose Manhattan distance is at most the transmission radius
    [r]. This module computes its connected components — the "islands" of
    Definition 2 — and the percolation statistics that separate the
    paper's sparse regime ([r < r_c], all components logarithmic) from the
    supercritical regime studied by Peres et al.

    Components come back as a {!Dsu.t} over agent ids, which is exactly
    the representation the simulation engine needs for instant
    component-wide flooding. *)

type snapshot = {
  component_of : Dsu.t;  (** union-find over agent ids *)
  edge_count : int;  (** number of visibility edges *)
}

val snapshot :
  Grid.t -> radius:int -> positions:Grid.node array -> snapshot
(** Build the visibility graph for one time step. O(k) expected below the
    percolation point. *)

val component_sizes : Dsu.t -> int array [@@seam "test_visibility"]
(** Sizes of all components, in no particular order. Sum equals the
    number of agents. *)

val max_component_size : Dsu.t -> int
(** The largest island (Lemma 6 studies its growth with [n]). 0 when
    there are no agents. *)

val giant_fraction : Dsu.t -> float [@@seam "test_visibility"]
(** Largest component size divided by the number of agents; the standard
    percolation order parameter. 0 for an empty agent set. *)

(** Empirical percolation analysis over uniformly placed agents. *)
module Percolation : sig
  val rc_theory : n:int -> k:int -> float
  (** The critical radius [r_c ~ sqrt (n / k)] (§1) around which a giant
      component emerges.
      @raise Invalid_argument if [n <= 0] or [k <= 0]. *)

  val sub_critical_radius : n:int -> k:int -> float
  (** The radius [sqrt (n / (64 e^6 k))] below which the lower bound of
      Theorem 2 applies. Always well below {!rc_theory}. *)

  val island_parameter : n:int -> k:int -> float
  (** [gamma = sqrt (n / (4 e^6 k))] of Lemma 6: islands of parameter
      [gamma] have at most [log n] agents w.h.p. *)

  val giant_fraction_at :
    Grid.t -> Prng.t -> k:int -> radius:int -> trials:int -> float
  (** Mean giant-component fraction over [trials] independent uniform
      placements of [k] agents. *)

  val estimate_rc :
    Grid.t -> Prng.t -> k:int -> trials:int -> ?target:float -> unit -> int
  (** Smallest integer radius whose mean giant fraction reaches [target]
      (default 0.5), found by scanning upward from 0. Matches
      {!rc_theory} up to constants for uniform placements. *)
end
