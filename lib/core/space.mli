(** The space layer of the simulation engine.

    The paper's process (§2) and every baseline it is compared against
    (§1.1) share one pipeline: place agents, repeat (move every active
    agent, rebuild the visibility graph, exchange information over it,
    observe metrics). What differs between the models is only {e where
    the agents live}: the paper's bounded/torus grid with lazy walks, the
    continuum box with Brownian motion of Peres et al., the dense grid
    with Clementi-style jumps, or a floor-plan domain with barriers.
    {!S} captures exactly that varying part; {!Engine.Make} supplies the
    invariant rest.

    The signature is {e bulk}: one call per phase per step
    ([move_all], [rebuild_index], [iter_close_pairs], [observe]) rather
    than one per agent, so a functor instantiation pays a handful of
    indirect calls per step and the per-agent inner loops stay
    monomorphic inside each space implementation. *)

(** Which agents move this step. The engine picks the variant once at
    creation from the protocol (the arrays are the engine's live state,
    not copies), so the per-step dispatch is a single match. *)
type mobility =
  | Mobile_all  (** broadcast, gossip, cover protocols *)
  | Mobile_informed of bool array
      (** Frog model: only informed agents move *)
  | Mobile_predators of {
      informed : bool array;  (** caught flags, indexed by individual *)
      predators : int;  (** ids [0, predators) always move *)
    }
      (** predator–prey: predators always move, caught preys stop *)

(** Coverage bitmaps over a space's discrete cells. *)
module Cover : sig
  type t

  val create : cells:int -> t
  (** All-clear bitmap over cell ids [0 .. cells-1].
      @raise Invalid_argument if [cells < 0]. *)

  val count : t -> int
  (** Number of marked cells. O(1). *)

  val mark : t -> int -> unit
  (** Mark a cell; idempotent. *)

  val mem : t -> int -> bool
end

(** What a space must provide. Instances: {!Grid_space} (the paper's
    model), [Continuum.Space] (Brownian box), [Barriers.Domain_space]
    (floor plans). *)
module type S = sig
  type t
  (** The space itself plus its reusable spatial-index scratch. One value
      serves one engine instance; it is mutated by [rebuild_index]. *)

  type pos
  (** Bulk position state for all agents: int32 coordinate vectors on
      the grid and the floor plans, a pair of float coordinate arrays in
      the continuum. Owned by the engine, mutated in place by
      [move_all]. *)

  val init_positions : t -> Prng.t -> n:int -> pos
  (** Place [n] agents uniformly, drawing from the given stream. The
      draw order is part of the deterministic contract: it must match
      what the pre-refactor engine for this space did. *)

  val move_all : ?present:bool array -> t -> pos -> Prng.t array -> mobility -> unit
  (** One mobility-kernel transition for every agent selected by the
      {!mobility} value, in increasing agent order, drawing only from
      the moving agent's own stream [rngs.(i)]. Agents masked out by
      [present] (the engine's churn adversary) freeze in place and draw
      nothing — their stream pauses until they return. *)

  val rebuild_index : ?present:bool array -> t -> pos -> unit
  (** Load current positions into the spatial index (reusing internal
      storage across steps). Agents masked out by [present] are left out
      of the index entirely, so [iter_close_pairs] never visits them. *)

  val iter_close_pairs : t -> f:(int -> int -> unit) -> unit
  (** Visit every visibility edge of the last [rebuild_index] exactly
      once, in an order fixed by that rebuild alone. The order is part
      of every faulted run's result: under loss faults the engine draws
      one random number per visited pair, in visit order (the DSU build
      and the exchange policies are order-independent; the loss draws
      are not). The grid space inherits {!Spatial}'s order, a contract
      at radius 0; changing a space's pair order changes its lossy
      runs. *)

  val cliques : t -> bool
  (** Whether every component of the visibility graph is a clique: the
      grid and the floor plans at radius 0, where a close pair is two
      agents on one node (a node always has line of sight to itself).
      Then one hop informs a whole component, and the components are
      the nodes' groups ({!fold_group_sizes}). Fixed at creation. The
      continuum answers [false]. *)

  val fold_group_sizes : t -> init:'a -> f:('a -> int -> 'a) -> 'a
  (** When {!cliques} holds: [f] folded over the sizes of the last
      [rebuild_index]'s groups of two or more agents on one node, in
      no particular order. Each such group is one component of the
      step's graph; every other indexed agent is alone. Linear in the
      agents on a shared node (and the few alone that the grid's
      radius-0 filter keeps), no allocation.
      @raise Invalid_argument when {!cliques} does not hold. *)

  val cover_cells : t -> int
  (** Size of the discrete cell-id range coverage bitmaps must span, or
      [0] when the space does not support coverage (continuum). *)

  val cover_target : t -> int
  (** Number of cells that counts as full coverage ([cover_cells] for
      the plain grid; the free-node count for barrier domains). *)

  val theory_n : t -> int
  (** The node count [n] of the paper's [T_B = n/√k] ramp, which the
      series' [theory_residual] column measures a run against: the
      grid's nodes, a floor plan's free nodes, a continuum box's area
      rounded. *)

  val observe :
    t ->
    pos ->
    informed:bool array ->
    frontier:int ->
    cover:Cover.t option ->
    cover_any:bool ->
    int
  (** Post-exchange metrics sweep: returns the new informed frontier
      (the largest x-coordinate of an informed agent seen so far, given
      the previous [frontier]) and, when [cover] is present, marks the
      cells occupied by informed agents — or by all agents when
      [cover_any] is set (the Cover_walks protocol). *)
end
