(** Spatial index: find all pairs of agents within Manhattan distance
    [r] (in the continuum's box, Euclidean distance) without the O(k^2)
    all-pairs scan.

    At radius [r >= 1] agents are bucketed into square cells of side
    [min r side]; any two agents within Manhattan distance [r] are also
    within Chebyshev distance [r], hence land in the same or
    side/corner-adjacent buckets. Scanning each bucket against its 3x3
    neighbourhood therefore finds every close pair exactly once. Below
    the percolation point the expected bucket occupancy is O(1), so a
    full pass costs O(k). Buckets are keyed by Morton (Z-order) codes,
    so spatially adjacent buckets sit near each other in the backing
    arrays, which are sized to the (power-of-two padded) bucket grid.
    Besides them the index keeps a table of each column's half key,
    [min side 65536] int32 entries outside the OCaml heap (at most
    256 KiB), and six int arrays of the population's length.

    At radius 0 a close pair is two agents on one node. A filter of
    about 4 slots per agent (a power of two, at least 1024, no more than
    the grid has nodes) counts agents per slot, saturating at 2, in
    4-bit counters kept in the sort's output buffer; only the agents
    whose slot reads 2 (every agent with company, and a few alone on a
    node that shares its slot) are grouped by node, with a counting
    sort over k-sized arrays and a digit table of at most 4096 slots.
    So its memory grows with k, not with the grid.

    Pair order is part of the contract at every radius, because callers
    draw one random number per visited pair (the engine's loss faults).
    At radius 0: nodes in order of their smallest indexed agent, agents
    ascending within a node, pairs in lexicographic order within a node.
    At [r >= 1] the bucket grid has [⌈side / b⌉] columns and rows on a
    bounded grid (the last may be narrower) and [⌊side / b⌋] on a torus
    (the last absorbs the remainder), for the bucket side [b = min r
    side]; an agent at [(x, y)] is in column [min (x / b) (columns - 1)]
    and likewise row. Buckets come in order of their smallest indexed
    agent (first touch), agents ascending within a bucket. For each
    bucket, first its own pairs in lexicographic order, then its pairs
    with the agents of its E [(+1, 0)], N [(0, +1)], NE [(+1, +1)] and
    NW [(-1, +1)] neighbours, in that order: for each of the bucket's
    agents ascending, each of the neighbour's ascending. A neighbour
    off a bounded grid's edge does not exist; on a torus indices wrap.
    Each pair
    is reported as [(min, max)]. A torus with fewer than 3 bucket
    columns reports every close pair in lexicographic order instead.

    The index is rebuilt each simulation step by its one entry,
    {!rebuild_soa}, from int32 coordinate vectors; the structure reuses
    its internal arrays across rebuilds. At radius 0 it also keeps each
    agent's node from the rebuild before, so a caller that maintains
    components across steps can repair them incrementally
    ({!reconcile}) when a rebuild reports {!Delta}. The engine itself
    does not: it rebuilds its components from {!iter_close_pairs} every
    step. The only caller of {!reconcile} and the only reader of the
    verdict is bench/suite/probes.ml; ROADMAP item 2 deletes both.

    The continuum's box uses the same bucket table, one cell per
    bucket, with its own scan ({!iter_close_points}).

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
          {!reconcile} can repair components incrementally (read only
          by bench/suite/probes.ml, see above) *)

val create : Grid.t -> radius:int -> t
(** [create grid ~radius] prepares an index for agents on [grid] with
    transmission radius [radius]. Any radius works: buckets never grow
    wider than the grid, since every pair already lies within
    Chebyshev distance [side - 1]. At radius 0 nothing is sized to the
    grid beyond a table of at most 4096 slots.
    @raise Invalid_argument if [radius < 0] or the grid needs more than
    65536 bucket columns (a side above 65536 at radius 0 or 1). *)

val table_slots : side:int -> torus:bool -> radius:int -> int
(** Slots of each of the three tables {!create} allocates for this
    geometry ([radius >= 0], [1 <= side <= 65536]): at radius 0 the
    counting sort's digit table (at most 4096); at radius [r >= 1] the
    Morton bucket table, the square of the next power of two of the
    bucket columns per row ([⌈side / r⌉], or [⌊side / r⌋] on a torus).
    [Config.validate] bounds it so the index fits in memory. *)

val radius : t -> int

val rebuild_soa :
  ?present:bool array -> t -> xs:vec -> ys:vec -> n:int -> update
(** [rebuild_soa t ~xs ~ys ~n] loads the positions of agents [0..n-1]
    from coordinate vectors ([xs.{i}], [ys.{i}] on the grid), with no
    per-step allocation. Replaces any previous contents. When [present]
    is given, agents with [present.(i) = false] are left out of the
    index entirely — no pair scan visits them (the engine's churn
    mask). At radius 0 most agents that share no node with another are
    filtered out before the sort, so the sort and the pair scan cost
    O(candidates), not O(n); the index grows its arrays on the first
    rebuild and again only for a larger population. Returns {!Delta}
    when {!reconcile} may follow: at radius 0, for consecutive unmasked
    rebuilds of the same population; otherwise {!Full}.
    @raise Invalid_argument if [n > 2^30]. *)

val reconcile :
  t -> dissolve:(int -> unit) -> union:(int -> int -> unit) -> unit
  [@@seam "bench/suite/probes.ml; goes with ROADMAP item 2"]
(** After a {!rebuild_soa} that returned {!Delta}: repair an external
    component structure that matched the previous rebuild. First
    computes the nodes whose membership changed (an agent that switched
    nodes dirties both), in O(k) time with O(k) scratch. Then calls
    [dissolve i] for every current member of every such node (all
    dissolves precede all unions), then [union i j] to re-link each
    such node's cohabitants. Components of untouched nodes are never
    visited — their members are pairwise cohabiting, so their old
    unions remain exact. After a {!Full} rebuild the comparison is
    meaningless (though memory-safe); do not call this. Only
    bench/suite/probes.ml calls it, and ROADMAP item 2 deletes it.
    @raise Invalid_argument at radius [> 0]. *)

val iter_close_pairs : t -> f:(int -> int -> unit) -> unit
(** Call [f i j] (with [i < j]) exactly once for every pair of agents at
    Manhattan distance [<= radius] in the last rebuild. For
    [radius = 0] this degenerates to exact-position cohabitation. *)

val fold_group_sizes : t -> init:'a -> f:('a -> int -> 'a) -> 'a
(** At radius 0: [f] folded over the sizes of the last rebuild's
    groups of two or more indexed agents on one node, in no particular
    order. Every close pair lies inside one such group, and each group
    is a clique of {!iter_close_pairs}. O(candidates), no allocation.
    @raise Invalid_argument at radius [> 0]. *)

val iter_close_points :
  t -> xs:float array -> ys:float array -> radius:float ->
  f:(int -> int -> unit) -> unit
(** The continuum's scan. After a {!rebuild_soa} that loaded each
    agent's cell on a bounded grid of cells of side at least [radius]:
    call [f i j] (with [i < j]) exactly once for every pair of indexed
    agents whose points [(xs.(i), ys.(i))] and [(xs.(j), ys.(j))] lie
    within Euclidean distance [radius], in the bucket order of
    {!iter_close_pairs}. No closure is built and the distance is not
    chosen per pair. @raise Invalid_argument on a torus or at radius 0,
    or if [xs] or [ys] is shorter than the rebuilt population. *)

val count_close_pairs : t -> int
  [@@seam "bench/suite/probes.ml; goes with ROADMAP item 2"]
(** Number of pairs that {!iter_close_pairs} would visit. *)
