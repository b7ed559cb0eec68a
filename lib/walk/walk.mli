(** Random-walk kernels on the grid, and the single-walk statistics that
    the paper's Lemmas 1–3 are about.

    The paper's walk (§2) is {e lazy}: an agent on a node with [n_v]
    neighbours moves to each neighbour with probability [1/5] and stays
    put with probability [1 - n_v / 5]. This choice makes the uniform
    distribution on nodes stationary — agents remain uniformly placed at
    every time step, a fact the analysis leans on repeatedly. A plain
    simple random walk is also provided as a comparison kernel (it is
    {e not} uniform-stationary on the bounded grid).

    {b One body per kernel.} Every entry point steps a walker on its
    coordinates: the lazy, simple and lazy-half kernels share one
    direction draw (W/E/S/N or stay, with no draw on a degree-0 node) and
    one clamp-or-wrap coordinate update; the jump kernel has one
    rejection sampler per topology. Only the engine's lazy-kernel paths
    in {!step_inplace} and {!move_all} specialise that draw, and they are
    held to it draw for draw. Every entry point therefore takes the same
    draws in the same order from a given node and stream.

    {b Scalar walks.} {!advance}, {!path}, {!excursion_stats},
    {!hits_within} and {!first_meeting} split their start node into
    coordinates once and step in registers, with no division and no
    allocation per step. A node index is formed only where one is
    returned or tested: the end of the walk, the target, the other
    walker, or [where]. *)

type kernel =
  | Lazy_one_fifth
      (** The paper's kernel: each existing neighbour w.p. 1/5, stay with
          the remaining mass. Uniform-stationary on the bounded grid. *)
  | Simple
      (** Classic SRW: uniform over existing neighbours, never stays. *)
  | Lazy_half
      (** Stay w.p. 1/2, else uniform over existing neighbours. Standard
          in the multiple-walks cover-time literature (§4, [2, 12]). *)
  | Jump of int
      (** The Clementi et al. geometric-random-walk kernel (§1.1 [7, 8]):
          jump to a node uniform over the Manhattan ball of the given
          radius [rho] intersected with the grid. [Jump 0] holds still and
          draws nothing from the stream. Not uniform-stationary on the
          bounded grid (corner nodes have smaller balls). *)

val kernel_to_string : kernel -> string

val step : Grid.t -> kernel -> Prng.t -> Grid.node -> Grid.node
  [@@seam "test_walk and test_engine: the scalar-walk oracle"]
(** One transition of the kernel from the given node. *)

type vec = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Structure-of-arrays coordinate vector (one coordinate per agent). *)

val step_inplace : Grid.t -> kernel -> Prng.t -> xs:vec -> ys:vec -> int -> unit
(** [step_inplace grid kernel rng ~xs ~ys i] performs one transition of
    agent [i], mutating [xs.{i}]/[ys.{i}] in place with zero allocation.
    Consumes exactly the same stream draws in the same order as {!step},
    so runs stepped through either entry point are byte-identical. *)

val move_all :
  Grid.t -> kernel -> Prng.t array -> xs:vec -> ys:vec -> n:int -> unit
(** One {!step_inplace} transition for each of agents [0..n-1], agent [i]
    drawing from [rngs.(i)]. Equivalent to calling {!step_inplace} in
    increasing agent order (same draws, same results); the lazy kernel is
    specialised so the per-agent dispatch and grid lookups are hoisted
    out of the loop. *)

val advance : Grid.t -> kernel -> Prng.t -> Grid.node -> steps:int -> Grid.node
(** Position after [steps] transitions. @raise Invalid_argument if
    [steps < 0]. *)

val path : Grid.t -> kernel -> Prng.t -> Grid.node -> steps:int -> Grid.node array
  [@@seam "test_walk: the trajectory behind excursion_stats's oracle"]
(** Full trajectory including the start: [steps + 1] entries. *)

(** {1 Walk statistics (Lemmas 1–3)} *)

type excursion = {
  final : Grid.node;  (** position after the last step *)
  range : int;  (** number of distinct nodes visited, start included *)
  max_displacement : int;
      (** maximum Manhattan distance from the start over the excursion *)
}

val excursion_stats :
  Grid.t -> kernel -> Prng.t -> Grid.node -> steps:int -> excursion
(** Runs [steps] transitions and returns the Lemma 2 statistics: the
    {e range} ([R_l], Lemma 2.2) and the maximum displacement (Lemma
    2.1), without materialising the trajectory. Its visited set is one
    array sized from [min (steps + 1) nodes], the most nodes the
    excursion can visit. *)

val hits_within :
  Grid.t -> kernel -> Prng.t -> start:Grid.node -> target:Grid.node ->
  steps:int -> bool
(** Whether a walk from [start] visits [target] within [steps] steps
    (Lemma 1: for the lazy walk this has probability
    [>= c1 / max(1, log ||target - start||)] when [steps = d^2]). *)

val first_meeting :
  Grid.t -> kernel -> Prng.t -> a:Grid.node -> b:Grid.node -> steps:int ->
  ?where:(Grid.node -> bool) -> unit -> int option
(** [first_meeting grid kernel rng ~a ~b ~steps ~where ()] runs two
    independent walks from [a] and [b] synchronously and returns the
    first time [t <= steps] at which they occupy the same node satisfying
    [where] (default: anywhere), or [None]. Time 0 counts: if [a = b] and
    [where a], the result is [Some 0]. This is the quantity bounded below
    by Lemma 3. *)

val meeting_disk : Grid.t -> a:Grid.node -> b:Grid.node -> Grid.node -> bool
(** The region [D] of Lemma 3: nodes within distance [d = ||a - b||] of
    {e both} endpoints. *)
