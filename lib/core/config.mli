(** Parameters of one simulation run.

    A configuration is a pure value: running the same configuration twice
    produces identical results, because every random draw derives from
    [(seed, trial)] through splittable streams. Sweeps vary [trial] to
    obtain independent replicates of the same parameter point. *)

(** How information moves within one time step (see
    {!Exchange.mechanism}). *)
type exchange = Exchange.mechanism =
  | Flood_component
  | Single_hop

type t = {
  side : int;  (** grid side; the paper's [n] is [side * side] *)
  torus : bool;
      (** periodic boundary (default [false], the paper's bounded grid);
          used by the boundary-effects ablation X5 *)
  agents : int;  (** the paper's [k] (predator count for predator–prey) *)
  radius : int;  (** transmission radius [r >= 0], Manhattan *)
  kernel : Walk.kernel;  (** mobility kernel; the paper's is {!Walk.Lazy_one_fifth} *)
  protocol : Protocol.t;
  exchange : exchange;  (** see {!exchange}; the paper's is [Flood_component] *)
  seed : int;  (** experiment-level seed *)
  trial : int;  (** replicate index; distinct trials are independent *)
  source : int option;
      (** index of the initially informed agent for broadcast-like
          protocols; [None] picks uniformly at random (the paper's
          "arbitrary agent" with its uniform placement) *)
  sources : int;
      (** how many agents start informed for broadcast-like protocols
          (default 1, the paper's setting); when [> 1] they are drawn
          uniformly without replacement and [source] must be [None] *)
  max_steps : int option;
      (** hard safety cap; [None] uses {!default_max_steps} *)
  faults : Faults.Plan.t;
      (** fault adversary ({!Faults.Plan.empty} for the paper's
          loss-free world — the default; an empty plan is byte-identical
          to a faultless run). See {!Faults} and [--faults] in the CLI. *)
}

val make :
  ?torus:bool -> ?radius:int -> ?kernel:Walk.kernel -> ?protocol:Protocol.t ->
  ?exchange:exchange -> ?seed:int -> ?trial:int -> ?source:int ->
  ?sources:int -> ?max_steps:int -> ?faults:Faults.Plan.t ->
  side:int -> agents:int -> unit -> t
(** Defaults: [radius = 0], the paper's lazy kernel, [Broadcast],
    [Flood_component], [seed = 0], [trial = 0], one random source,
    computed step cap, no faults. *)

val exchange_to_string : exchange -> string

val n : t -> int
(** Number of grid nodes, [side * side]. *)

val default_max_steps : t -> int
(** Safety cap used when [max_steps = None]: generous slack above every
    theory curve in this repo (including the slowest, single-walk cover
    time [~ n log^2 n]), so a mis-parameterised run terminates and is
    reported as timed out rather than hanging. *)

val effective_max_steps : t -> int

(** {1 Size limits}

    The largest runs the engine can allocate. A size beyond them fails
    {!validate} (and the scenario compiler) instead of overflowing an
    index computation or an allocation. *)

val max_side : int
(** [65536]: at radius 0 the spatial index keys cells by 16-bit
    coordinates. *)

val max_radius : int
(** [2 * max_side]: every pair on a legal grid already lies within
    Manhattan distance [2 (side - 1)], so no larger radius could change
    a run. *)

val max_population : int
(** [2^30] agents, preys included: gossip counts the population squared
    in one int. *)

val max_index_slots : int
(** [2^24]: the most slots a spatial-index table
    ([Spatial.table_slots]) may have. The radius-[>= 1] bucket table has
    three arrays of that many slots (384 MiB at the limit), so side 4096
    at radius 1 fits and side 16384 at radius 1 (6 GiB) does not. *)

val check_index : side:int -> torus:bool -> radius:int -> (unit, string) result
(** Whether the spatial index of this geometry stays within
    {!max_index_slots}; the error names the side, the radius and the
    slot count. [side] must lie in [[1, max_side]] and [radius] be
    non-negative. Part of {!validate}; the scenario compiler calls it
    to place the diagnostic at the radius. *)

val validate : t -> (unit, string) result
(** Check structural validity (positive sizes within the limits above,
    source and sources in range, a valid fault plan whose agents and
    roles fit the run, ...) and report the first failure. Any density
    is valid: the dense baseline runs [k = n/2] agents. Allocates
    nothing on success. *)

val rng_for : t -> Prng.t
(** The root random stream of this (seed, trial) pair. *)

val to_string : t -> string

val percolation_radius : t -> float
(** [r_c = sqrt (n / k)] for this configuration. *)

val is_subcritical : t -> bool
(** Whether [radius] lies strictly below the Theorem 2 threshold
    [sqrt (n / (64 e^6 k))] — the regime where the paper's lower bound
    applies. *)
