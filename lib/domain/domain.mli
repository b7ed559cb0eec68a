(** Planar domains with mobility and communication barriers — the
    extension the paper names as future work (§4: "more complex planar
    domains that include both communication and mobility barriers").

    A domain is a grid together with a set of {e blocked} nodes. Agents
    live on free nodes only: the walk kernel clamps moves into blocked
    cells (preserving the lazy-walk structure — every free neighbour is
    taken w.p. 1/5, all remaining mass stays), and, optionally, radio
    transmission requires line of sight: a visibility edge exists only
    when the straight segment between two agents crosses no blocked
    cell.

    Constructors guarantee nothing beyond shape; call {!is_connected}
    before simulating — a disconnected free region makes broadcast
    impossible from some sources, which the barrier simulator treats as
    a timeout, never an error. *)

type t

type rect = { x : int; y : int; w : int; h : int }
(** A blocked axis-aligned rectangle: cells [x .. x+w-1] x [y .. y+h-1]. *)

val unobstructed : Grid.t -> t
(** The plain grid: nothing blocked. *)

val with_rectangles : Grid.t -> rects:rect list -> t
  [@@seam "test_barriers, test_percolation, test_render: floor plans no plan spells"]
(** Block the union of the given rectangles (clipped to the grid).
    @raise Invalid_argument on a torus grid — barrier domains model
    bounded floor plans (all constructors inherit this restriction). *)

val central_wall : Grid.t -> gap:int -> t
(** A one-cell-thick vertical wall through the middle column with a
    [gap]-cell opening centred vertically — the canonical two-chambers
    domain. [gap >= side] leaves the grid open.
    @raise Invalid_argument if [gap < 1]. *)

val rooms : Grid.t -> rooms_per_side:int -> door:int -> t
(** Partition the grid into [rooms_per_side]^2 rooms by one-cell-thick
    walls, each interior wall pierced by a centred [door]-cell opening.
    @raise Invalid_argument if [rooms_per_side < 1] or [door < 1]. *)

(** {1 Queries} *)

val grid : t -> Grid.t

val is_free : t -> Grid.node -> bool

val free_count : t -> int
(** Number of free nodes. *)

val is_connected : t -> bool
(** Whether the free region is connected (BFS). The empty region counts
    as connected. *)

val random_free_node : t -> Prng.t -> Grid.node
(** Uniform over free nodes. @raise Invalid_argument if none. *)

val fold_free_neighbours :
  t -> Grid.node -> init:'a -> f:('a -> Grid.node -> 'a) -> 'a
  [@@seam "test_barriers: the free degrees behind step_lazy's holding mass"]
(** Fold over the free grid neighbours of a node. *)

val line_of_sight : t -> Grid.node -> Grid.node -> bool
(** Whether the straight segment between the two node centres stays
    within free cells (conservative supercover sampling). Both endpoints
    must be free. Reflexive and symmetric. *)

(** {1 Mobility} *)

val step_lazy : t -> Prng.t -> Grid.node -> Grid.node
  [@@seam "test_barriers: the floor-plan move oracle"]
(** One transition of the paper's lazy kernel restricted to the domain:
    each {e free} neighbour w.p. 1/5, stay with the remaining mass
    (blocked or off-grid directions turn into holding probability, just
    as grid borders do in the unobstructed walk). The uniform
    distribution over free nodes is stationary. *)
