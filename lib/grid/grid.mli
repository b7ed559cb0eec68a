(** The [n]-node two-dimensional square grid [G_n] of the paper (§2).

    Nodes are addressed both as integer indices in [0, n) (compact, used as
    array keys throughout the simulator) and as [(x, y)] coordinates with
    [0 <= x, y < side]. The grid is a bounded lattice — walks reflect at
    the border only through the reduced neighbour count, exactly as in the
    paper's lazy-walk definition (a node has 2, 3 or 4 neighbours).

    Distances are Manhattan (the paper's [||u - v||]); Chebyshev distance
    is also provided since the bucket-grid spatial index uses it
    internally. *)

type t
(** A square grid. Immutable; cheap to copy and compare. *)

type node = int
(** A node index in [0, side * side). *)

(** Boundary behaviour. The paper's grid is [Bounded]; the [Torus]
    variant (periodic boundary) is provided for the boundary-effects
    ablation — much of the multiple-random-walks literature (Alon et
    al., Elsässer–Sauerwald) works on the torus. *)
type topology =
  | Bounded  (** walks reflect through reduced degree at the border *)
  | Torus  (** all nodes have degree 4; distances wrap around *)

val create : ?topology:topology -> side:int -> unit -> t
(** [create ~side ()] is the [side x side] grid ([n = side * side]
    nodes), bounded by default.
    @raise Invalid_argument if [side <= 0], or if a torus is requested
    with [side < 3] (smaller tori have multi-edges). *)

val side : t -> int
(** Side length. *)

val is_torus : t -> bool

val nodes : t -> int
(** Total number of nodes [n = side * side]. *)

val diameter : t -> int [@@seam "test_grid, test_percolation"]
(** Manhattan diameter: [2 (side - 1)] bounded, [2 (side / 2)] on the
    torus (0 for the single-node grid). *)

val index : t -> x:int -> y:int -> node
(** [index t ~x ~y] is the node at column [x], row [y].
    @raise Invalid_argument if out of bounds. *)

val x_of : t -> node -> int
(** Column of a node. *)

val y_of : t -> node -> int
(** Row of a node. *)

val coords : t -> node -> int * int [@@seam "test_grid"]
(** [(x, y)] of a node. *)

val mem : t -> x:int -> y:int -> bool [@@seam "test_grid"]
(** Whether [(x, y)] lies on the grid. *)

val center : t -> node
(** The node at [(side / 2, side / 2)]. *)

val manhattan : t -> node -> node -> int
(** Manhattan distance [|x1 - x2| + |y1 - y2|] — the paper's metric.
    Wraps around on the torus. *)

val chebyshev : t -> node -> node -> int
(** Chebyshev (max-coordinate) distance; wraps on the torus. *)

val distance_to_border : t -> node -> int [@@seam "test_grid"]
(** Minimum number of steps from the node to any grid border; [max_int]
    on the torus (it has no border). *)

val degree : t -> node -> int [@@seam "test_barriers, test_grid, test_walk"]
(** Number of grid neighbours: 2 at corners, 3 on edges, 4 inside —
    always 4 on the torus. *)

val fold_neighbours : t -> node -> init:'a -> f:('a -> node -> 'a) -> 'a
(** Fold over the 2–4 neighbours of a node. Allocation-free. *)

val neighbours : t -> node -> node list [@@seam "test_grid, test_walk"]
(** Neighbour list (convenience for tests; the simulator uses
    {!fold_neighbours}). *)

val random_node : t -> Prng.t -> node
(** A uniformly random node. *)

val ball_size_unbounded : int -> int [@@seam "test_grid"]
(** [ball_size_unbounded d] is the number of lattice points within
    Manhattan distance [d] of a point on the {e infinite} grid:
    [2d^2 + 2d + 1].
    @raise Invalid_argument if [d < 0]. *)

val ball_size : t -> node -> int -> int [@@seam "test_grid"]
(** [ball_size t v d] is the exact number of grid nodes within Manhattan
    distance [d] of [v], accounting for borders (or for wrap-around on
    the torus). @raise Invalid_argument if [d < 0]. *)

val fold_ball : t -> node -> int -> init:'a -> f:('a -> node -> 'a) -> 'a
  [@@seam "test_grid"]
(** Fold over all nodes within Manhattan distance [d] of [v] (including
    [v] itself). On the torus the ball must not wrap onto itself:
    @raise Invalid_argument if [2 d + 1 > side] there. *)

(** Tessellation of the grid into [cell_side x cell_side] cells, as used
    in the proof of Theorem 1. Cells at the right/top border may be
    narrower when [cell_side] does not divide [side]. *)
module Tessellation : sig
  type cell = int
  (** A cell index in [0, cell_count). *)

  type tess

  val create : t -> cell_side:int -> tess
  (** @raise Invalid_argument if [cell_side <= 0]. *)

  val cell_side : tess -> int [@@seam "test_grid"]

  val cells_per_row : tess -> int

  val cell_count : tess -> int

  val cell_of_node : tess -> node -> cell

  val cell_origin : tess -> cell -> int * int [@@seam "test_grid"]
  (** Bottom-left [(x, y)] of a cell. *)

  val cell_center : tess -> cell -> node [@@seam "test_grid"]
  (** A node near the geometric centre of the cell. *)

  val nodes_in_cell : tess -> cell -> int [@@seam "test_grid"]
  (** Number of grid nodes in the cell (smaller for clipped border
      cells). *)

  val adjacent_cells : tess -> cell -> cell list [@@seam "test_grid"]
  (** The up-to-4 side-adjacent cells. *)
end
