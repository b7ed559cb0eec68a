(** Bucket-grid spatial index: find all pairs of agents within Manhattan
    distance [r] without the O(k^2) all-pairs scan.

    Agents are bucketed into square cells of side [max 1 r]; any two
    agents within Manhattan distance [r] are also within Chebyshev
    distance [r], hence land in the same or side/corner-adjacent buckets.
    Scanning each bucket against its 3x3 neighbourhood therefore finds
    every close pair exactly once. Below the percolation point the
    expected bucket occupancy is O(1), so a full pass costs O(k).

    Buckets are keyed by Morton (Z-order) codes, so spatially adjacent
    buckets sit near each other in the backing arrays; the keying is
    invisible to iteration order, which remains first-touch bucket
    order with agent-id order inside each bucket.

    The index is rebuilt each simulation step ({!rebuild} from a node
    array, or {!rebuild_soa} from int32 coordinate vectors — the
    engine's allocation-free path); the structure reuses its internal
    table across rebuilds. It also keeps each agent's bucket from the
    rebuild before, so a caller that maintains components across steps
    can repair them incrementally ({!reconcile}) when a radius-0
    rebuild reports {!Delta}. The engine itself does not: it rebuilds
    its components from {!iter_close_pairs} every step.

    Torus grids are fully supported: bucket adjacency wraps around, and
    degenerate layouts (fewer than 3 bucket columns) fall back to an
    exhaustive pair scan so correctness never depends on the layout. *)

type t

type vec = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Structure-of-arrays coordinate vector: entry [i] is one coordinate
    of agent [i]. *)

type update =
  | Full  (** no usable previous membership to compare against *)
  | Delta
      (** the previous rebuild indexed the same agents at radius 0;
          {!reconcile} can repair components incrementally *)

val create : Grid.t -> radius:int -> t
(** [create grid ~radius] prepares an index for agents on [grid] with
    transmission radius [radius]. Any radius works: buckets never grow
    wider than the grid, since every pair already lies within
    Chebyshev distance [side - 1]. @raise Invalid_argument if
    [radius < 0] or the grid needs more than 65536 bucket columns (a
    side above 65536 at radius 0 or 1). *)

val radius : t -> int

val rebuild : ?present:bool array -> t -> positions:Grid.node array -> unit
(** Load the current agent positions (array index = agent id). Replaces
    any previous contents. When [present] is given, agents with
    [present.(i) = false] are left out of the index entirely — no pair
    scan or near-query visits them (the engine's churn mask). *)

val rebuild_soa :
  ?present:bool array -> t -> xs:vec -> ys:vec -> n:int -> update
(** [rebuild_soa t ~xs ~ys ~n] loads positions of agents [0..n-1] from
    coordinate vectors. Same table and iteration semantics as
    {!rebuild}, with no per-step allocation. Returns {!Delta} when
    {!reconcile} may follow: at radius 0 (bucket = grid cell), for
    consecutive unmasked rebuilds of the same population; otherwise
    {!Full}. *)

val reconcile :
  t -> dissolve:(int -> unit) -> union:(int -> int -> unit) -> unit
(** After a {!rebuild_soa} that returned {!Delta}: repair an external
    component structure that matched the previous rebuild. First
    computes the buckets whose membership changed (an agent that
    switched buckets dirties both), in O(k). Then calls [dissolve i] for
    every current member of every such bucket (all dissolves precede
    all unions), then [union i j] to re-link each such bucket's
    cohabitants. Components of untouched buckets are never visited — at
    radius 0 their members are pairwise cohabiting, so their old unions
    remain exact. After a {!Full} rebuild the comparison is meaningless
    (though memory-safe); do not call this. *)

val iter_close_pairs : t -> f:(int -> int -> unit) -> unit
(** Call [f i j] (with [i < j]) exactly once for every pair of agents at
    Manhattan distance [<= radius] in the last rebuild. For
    [radius = 0] this degenerates to exact-position cohabitation. *)

val count_close_pairs : t -> int
(** Number of pairs that {!iter_close_pairs} would visit. *)

val iter_agents_near :
  t -> Grid.node -> range:int -> f:(int -> unit) -> unit
(** Call [f] on every agent within Manhattan distance [range] of the
    given node. [range] may differ from the index radius; cost grows with
    [range / radius] squared. *)
