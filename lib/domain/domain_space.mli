(** The barrier-domain instance of the engine's space layer: agents walk
    the lazy kernel over the free nodes of a {!Domain.t}, and
    (optionally) the visibility graph drops every edge whose line of
    sight crosses a blocked cell — mobility barriers and communication
    barriers, the two ingredients of the paper's §4 future-work
    scenario.

    It is the plain grid's space ({!Mobile_network.Grid_space}) under
    the lazy kernel, with the same int32 coordinate vectors, index and
    observation. A move is the bounded lazy {!Walk.step_inplace} step,
    undone when it lands on a blocked cell: the same draws and the same
    result as {!Domain.step_lazy}, which stays as its reference. When
    [los_blocking] is set, the line-of-sight filter is applied inside
    [iter_close_pairs], so the engine's component build sees only
    radio-reachable edges. Coverage targets the free nodes (blocked
    cells can never be visited). *)

include
  Mobile_network.Space.S with type pos = Mobile_network.Grid_space.pos

val create : Domain.t -> radius:int -> los_blocking:bool -> t
(** @raise Invalid_argument if the domain has no free node, or if
    [radius < 0] (via {!Spatial.create}). *)

val domain : t -> Domain.t

val los_blocking : t -> bool
