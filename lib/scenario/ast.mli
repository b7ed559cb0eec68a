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
    those re-spellings and is what keys the service's result cache. *)

module Protocol = Mobile_network.Protocol
module Config = Mobile_network.Config

(** Space instance the shared engine runs on. Non-grid spaces support
    only the plain broadcast (as on the CLI), which validation
    enforces. *)
type space = Grid | Continuum | Domain

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
}

val default : t
(** One-point axes: side 64, 32 agents, radius 0, broadcast, the
    paper's lazy kernel, component flooding, bounded grid, seed 0, 1
    trial, computed step cap, no faults. [mobisim simulate] takes its
    flag defaults from here and overrides the fields its flags set. *)

val equal : t -> t -> bool

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
}

val cells : t -> cell list
(** The cross product of the axes, in a fixed documented order: sides
    outermost, then agents, radii, protocols, kernels innermost. Length
    is the product of the axis lengths. *)

val cell_config : cell -> seed:int -> trial:int -> Config.t
(** The engine configuration of a grid cell.
    @raise Invalid_argument on a non-grid cell (the service runs those
    through their own engines). *)

val cell_json : cell -> Obs.Json.t
(** Canonical rendering of one cell: a single-point scenario object
    (scalar axes), fixed key order, faults always present. *)

val cell_hash : cell -> string
(** FNV-1a 64 of the compact {!cell_json} rendering, as 16 lowercase
    hex digits. Together with [(seed, trial)] this keys the result
    cache: equal hashes mean byte-identical results by determinism. *)

(** {1 Canonical form} *)

val canonical_json : t -> Obs.Json.t
(** All fields explicit, axes as lists, fixed key order. *)

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
