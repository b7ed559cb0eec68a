(** Where instrumentation goes — or doesn't.

    Every instrumented layer takes a sink. The default everywhere is
    {!null}, under which instrumentation must cost nothing: code gates
    its timing on [registry sink] being [None] (resolved once, outside
    the hot loop) and the per-event path reduces to an immediate-value
    branch with no allocation. Only a front end that was explicitly
    asked to measure (e.g. [--metrics FILE]) installs a recording sink.

    Metrics are strictly read-only observers: a sink must never
    influence scheduling, random streams or results. *)

type t

val null : t
(** The no-op sink. *)

val of_registry : Registry.t -> t
(** A sink that records into [r]. *)

val registry : t -> Registry.t option
(** [None] iff the sink is {!null} — the one branch instrumented code
    needs. *)

(** {2 Ambient sink}

    Mirrors {!Runtime.Pool}'s ambient pool: fan-out points buried under
    29 experiment modules ([Sweep], [Simulation.run_config]) cannot
    thread a sink through every signature, so they read this
    process-wide default instead. [null] until a front end installs
    one. *)

val set_ambient : t -> unit
val ambient : unit -> t
