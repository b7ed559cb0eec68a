(** The typed scenario AST: what a declarative scenario file means.

    A scenario is a small sweep matrix over the simulator's parameter
    space: per-field {e axes} (a scalar in the file is a one-point
    axis), a replicate count, and a fault plan. The compiler front-end
    ({!Compile}) parses and validates files into this type; desugaring
    ({!cells}) expands the axes into their cross product of concrete
    parameter points; each point plus a [(seed, trial)] pair determines
    one engine run completely.

    Canonical form: {!canonical_json} re-emits a scenario with {e every}
    field explicit (defaults filled in), axes always as lists, and keys
    in one fixed order — so two files that differ only in field order,
    omitted defaults, or scalar-vs-singleton-list spelling render
    identically. {!hash} (FNV-1a 64 over the compact canonical
    rendering, minus the cosmetic [name]) is therefore invariant under
    those re-spellings and is what keys the service's result cache.
    The exception is the space-specific scalars ({!space_settings}),
    written after [faults] only off their defaults, so a scenario that
    leaves them alone hashes as it did before they existed; and a set
    [density] ([rc_mult]) replaces [side] ([radius]), which the compiler
    rejects if written and the canonical form omits. *)

module Protocol = Mobile_network.Protocol
module Config = Mobile_network.Config

(** Space instance the shared engine runs on. Non-grid spaces support
    only the plain broadcast (as on the CLI), which validation
    enforces. *)
type space = Grid | Continuum | Domain

(** A domain's floor plan as data (all sizes [>= 1]); the service builds
    it with [Barriers.Domain.{unobstructed,central_wall,rooms}]. *)
type plan =
  | Open
  | Wall of { gap : int }
  | Rooms of { per_side : int; door : int }

type t = {
  name : string;  (** cosmetic label; excluded from {!hash} *)
  space : space;
  sides : int list;  (** axis: grid side lengths *)
  agents : int list;  (** axis: the paper's [k] *)
  radii : int list;  (** axis: transmission radius [r] *)
  protocols : Protocol.t list;  (** axis *)
  kernels : Walk.kernel list;  (** axis *)
  exchange : Config.exchange;
  torus : bool;
  seed : int;
  trials : int;  (** replicates per cell; trial indices [0 .. trials-1] *)
  max_steps : int option;
  faults : Faults.Plan.t;
  plan : plan;  (** domain only *)
  los_blocking : bool;  (** domain only: walls also block radio *)
  density : float option;  (** continuum only; see {!continuum_geometry} *)
  rc_mult : float option;  (** continuum only *)
  sigma_frac : float;  (** continuum only *)
}

val default : t
(** One-point axes: side 64, 32 agents, radius 0, broadcast, the
    paper's lazy kernel, component flooding, bounded grid, seed 0, 1
    trial, computed step cap, no faults, an open plan without
    line-of-sight blocking, no density or [rc_mult], [sigma_frac] 0.25.
    [mobisim simulate] takes its flag defaults from here and overrides
    the fields its flags set. *)

(** {1 String forms (CLI-compatible)} *)

val space_to_string : space -> string
val space_of_string : string -> (space, string) result

val protocol_to_string : Protocol.t -> string
(** ["broadcast"], ..., ["predator-prey:<preys>"] — the CLI's
    [--protocol] spelling, round-tripped by {!protocol_of_string}. *)

val protocol_of_string : string -> (Protocol.t, string) result

val kernel_to_string : Walk.kernel -> string
(** ["lazy"], ["simple"], ["lazy-half"], ["jump:<rho>"] — the CLI's
    [--kernel] spelling, round-tripped by {!kernel_of_string}. *)

val kernel_of_string : string -> (Walk.kernel, string) result

val exchange_to_string : Config.exchange -> string
val exchange_of_string : string -> (Config.exchange, string) result

val plan_to_string : plan -> string
(** ["open"], ["wall:<gap>"], ["rooms:<per-side>:<door>"] — the CLI's
    [--plan] spelling, round-tripped by {!plan_of_string}. *)

val plan_of_string : string -> (plan, string) result

(** {1 Desugaring} *)

(** One concrete parameter point of the sweep matrix: every axis
    pinned. A cell plus [(seed, trial)] determines a run completely. *)
type cell = {
  c_space : space;
  c_side : int;
  c_agents : int;
  c_radius : int;
  c_protocol : Protocol.t;
  c_kernel : Walk.kernel;
  c_exchange : Config.exchange;
  c_torus : bool;
  c_max_steps : int option;
  c_faults : Faults.Plan.t;
  c_plan : plan;
  c_los_blocking : bool;
  c_density : float option;
  c_rc_mult : float option;
  c_sigma_frac : float;
}

val cells : t -> cell list
(** The cross product of the axes, in a fixed documented order: sides
    outermost, then agents, radii, protocols, kernels innermost. Length
    is the product of the axis lengths. *)

val cell_config : cell -> seed:int -> trial:int -> Config.t
(** The engine configuration of a grid cell.
    @raise Invalid_argument on a non-grid cell (the service runs those
    through their own engines). *)

type geometry = { g_box_side : float; g_radius : float; g_sigma : float }

val continuum_geometry : cell -> geometry
(** A continuum cell's box side ([sqrt (k / density)] when [density] is
    set, else [side]), radius ([rc_mult] times the box's
    {!Mobile_network.Theory.continuum_critical_radius} when set, else
    [radius]) and Brownian step ([sigma_frac] times the radius; [1.0] at
    radius 0). The compiler checks it against the engine's limits. *)

val cell_json : cell -> Obs.Json.t
(** Canonical rendering of one cell: a single-point scenario object
    (scalar axes), fixed key order, faults always present. *)

val cell_hash : cell -> string
(** FNV-1a 64 of the compact {!cell_json} rendering, as 16 lowercase
    hex digits. Together with [(seed, trial)] this keys the result
    cache: equal hashes mean byte-identical results by determinism. *)

(** {1 Canonical form} *)

val canonical_json : t -> Obs.Json.t
(** All fields explicit (but see the header), axes as lists, fixed key
    order. *)

val space_settings : t -> (string * space * Obs.Json.t) list
(** The space-specific scalars off their defaults, in canonical order:
    field name, the one space that takes it, canonical value. *)

val to_string : t -> string
(** Pretty-printed {!canonical_json}, newline-terminated — a valid
    scenario file that re-parses to an equal AST. *)

val hash : t -> string
(** FNV-1a 64 (16 hex digits) of the compact {!canonical_json} with the
    cosmetic [name] removed: invariant under field order, omitted
    defaults, singleton-list spelling and renaming; changed by any
    semantic field edit. *)

val fnv1a64 : string -> string
(** The underlying string hash (exposed for tests and the store). *)
