(** Terminal rendering of simulation state.

    Frames downsample the grid to at most [max_width] character columns
    (one character cell covers a square block of grid nodes) so that
    large grids stay readable. Character legend:

    - ['.'] — no agent in the block;
    - ['o'] — only uninformed agents;
    - ['#'] — at least one informed agent;
    - ['%'] — blocked cells (domain frames only; mixed blocks show the
      majority). *)

val frame : ?max_width:int -> Mobile_network.Simulation.t -> string
(** One frame of a running simulation, with a one-line header (time,
    informed count). [max_width] defaults to 64 columns and is clamped
    to at least 4. *)

val domain_ascii : ?max_width:int -> Barriers.Domain.t -> string
(** Static map of a barrier domain: ['%'] blocked, ['.'] free. *)

val domain_frame :
  ?max_width:int -> Barriers.Domain.t -> positions:Grid.node array ->
  informed:(int -> bool) -> string [@@seam "test_render"]
(** A frame over a barrier domain: agents drawn on top of the blocked
    map, same legend as {!frame}. [informed i] reports agent [i]'s
    status. *)
