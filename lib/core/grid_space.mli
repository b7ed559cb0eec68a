(** The paper's space: agents on a bounded or toroidal grid, moving by a
    {!Walk.kernel} transition per step, with visibility = Manhattan
    distance [<= radius] found through the {!Spatial} index.

    Positions are structure-of-arrays int32 coordinate vectors
    ({!Walk.vec}): moves mutate them in place and the index loads them
    directly, so the steady-state step allocates nothing.

    This is the {!Space.S} instance behind {!Simulation}, for the
    paper's lazy walk of §2 and for the Clementi dense baseline of §1.1
    alike (with [Walk.Jump]): the two models differ only in kernel,
    radius and exchange mechanism, all fields of one {!Config.t}. *)

type pos = {
  side : int;  (** grid side, for node reconstruction *)
  xs : Walk.vec;
  ys : Walk.vec;
}

include Space.S with type pos := pos

val create : Grid.t -> kernel:Walk.kernel -> radius:int -> t
(** @raise Invalid_argument if [radius < 0] (via {!Spatial.create}). *)

val grid : t -> Grid.t

val kernel : t -> Walk.kernel

val node_at : pos -> int -> Grid.node
(** Current node of agent [i], reconstructed from its coordinates. *)

val agents : pos -> int
(** Number of agents the position state covers. *)
