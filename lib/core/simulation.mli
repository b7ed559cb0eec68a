(** The discrete-time simulation of the paper's model (§2) on the grid:
    the grid instance of the engine, [Engine.Make (Grid_space)], plus
    the {!Config.t} entry points.

    One step of the process:
    + every {e active} agent performs one transition of the mobility
      kernel (all agents for broadcast/gossip; only informed agents in
      the Frog model; only uncaught individuals in predator–prey);
    + the visibility graph [G_t(r)] is rebuilt from the new positions;
    + information is exchanged — for flooding protocols the rumor set of
      every agent becomes the union over its connected component (the
      paper's "radio is faster than motion" rule); for predator–prey,
      each prey within range of a predator is caught;
    + metrics are updated (informed count, rightmost informed coordinate
      [x(t)], largest island, coverage).

    Time 0 already performs an exchange on the initial uniform placement,
    so a broadcast among [k = 1] agents completes in 0 steps.

    The engine is deterministic: all randomness derives from
    [(config.seed, config.trial)] via splittable streams, one per agent,
    so results do not depend on evaluation order. *)

type t = Engine.Make(Grid_space).t
(** A simulation is the engine's grid instance: every {!Engine.Make}
    function applies to it ([Engine.Make (Grid_space).island_sizes],
    [.is_done], [.rumors], ...). This interface lists the ones the
    front ends use. *)

(** Why a run stopped. *)
type outcome = Engine.outcome =
  | Completed  (** the protocol's stopping predicate became true *)
  | Timed_out  (** the step cap was reached first *)

(** How a run ended: the engine's one run record. *)
type report = Engine.report = {
  outcome : outcome;
  steps : int;
  informed : int;
  covered : int;
}

val create :
  ?metrics:Obs.Sink.t ->
  ?series:Obs.Series.t ->
  ?full_rebuild:bool ->
  Config.t ->
  t
(** The engine over the configuration's grid, kernel and radius, with
    the configuration's step cap ({!Config.effective_max_steps}).
    [metrics] and [series] are {!Engine.Make.create}'s; the series'
    theory-residual column uses the grid's [n = side²].

    [full_rebuild] is accepted and ignored: the engine rebuilds the
    visibility-graph components from scratch every step, so there is no
    other path to select. Its only callers are the "incremental vs full
    rebuild" checks in bench/suite/engine_wl.ml; ROADMAP item 2 deletes
    it with them.
    @raise Invalid_argument if {!Config.validate} rejects the
    configuration. *)

val run_config :
  ?on_step:(t -> unit) ->
  ?metrics:Obs.Sink.t ->
  ?series:Obs.Series.t ->
  ?full_rebuild:bool ->
  Config.t ->
  report
(** [create] + [run]. *)

(** {1 Grid accessors} *)

val grid : t -> Grid.t

val is_informed : t -> int -> bool
(** Whether agent [i] is informed (for predator–prey: [i] is a predator,
    or a caught prey). @raise Invalid_argument if out of range. *)

val position : t -> int -> Grid.node
(** Current position of agent [i]. @raise Invalid_argument if out of
    range. *)

val positions : t -> Grid.node array
(** Copy of all current positions (index = agent id). *)

(** {1 From the engine} *)

val step : t -> unit
  [@@seam "bench/suite engine_wl.ml and probes.ml, which step by hand"]

val run : ?on_step:(t -> unit) -> t -> report

val time : t -> int

val population : t -> int

val informed_count : t -> int

val source : t -> int option

val frontier_x : t -> int

val max_island : t -> int

val covered_count : t -> int

val present_count : t -> int
