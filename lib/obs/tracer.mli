(** Execution tracer: a timeline of {e which domain did what, when}.

    Where {!Metric} aggregates (histograms answer "how long does a phase
    take on average?"), the tracer records individual events so the
    timeline itself can be inspected: which domain ran which phase of
    which trial, where the queue went idle, and where the stop-the-world
    GC cycles landed. {!export} merges everything into Chrome
    trace-event JSON, loadable in Perfetto ({:https://ui.perfetto.dev})
    or [chrome://tracing].

    {b Bounded memory, safe in hot loops.} Every emitting domain owns
    one fixed-capacity ring (registered on first emit; default
    {!default_capacity} events). The hot path is lock-free — the ring is
    single-writer — and performs four int stores. Once a ring is full,
    further events are counted in {!dropped} and discarded; tracing can
    never grow memory without bound or crash a run.

    {b The disabled path costs nothing.} Against {!null} every emit
    reduces to an immediate-value branch: no clock read, no allocation —
    the same discipline as the null {!Sink}. Instrumented layers
    resolve {!name} ids once, outside their loops, exactly like
    pre-resolved histograms.

    {b Tracing is pure observation.} Like metric sinks, a tracer must
    never influence scheduling, random streams or results; runs are
    byte-identical with tracing on or off (enforced by [test_tracer]).

    Readers ({!export}, {!events}, {!dropped}) expect quiescence: call
    them after the traced fan-outs have completed, not concurrently with
    emitting domains. *)

type t

val null : t
(** The disabled tracer: every operation is a no-op. *)

val default_capacity : int
(** Events per domain ring when [create] is not told otherwise (2{^16}). *)

val create : ?capacity:int -> unit -> t
(** A recording tracer whose per-domain rings hold [capacity] events.
    @raise Invalid_argument if [capacity < 1]. *)

val enabled : t -> bool
(** [false] iff the tracer is {!null} — the one branch instrumented
    code gates on (resolved once, outside the hot loop). *)

(** {2 Emitting}

    All timestamps are {!Clock.now_ns} values; the export rebases them
    to the earliest event. Taking [ts] explicitly keeps the emit
    functions deterministic under test and lets a caller reuse one clock
    read across an ending span and a following instant. *)

type name
(** An interned event name. Resolve once with {!name}, outside loops. *)

val name : t -> string -> name
(** Intern [s] (get-or-create, under the tracer's mutex — not for hot
    loops). On {!null} returns a dummy accepted by every emit. *)

val duration : t -> name -> ts:int -> dur:int -> unit
(** A completed span ([ph = "X"]): started at [ts], lasted [dur] ns. *)

val duration_v : t -> name -> ts:int -> dur:int -> v:int -> unit
(** {!duration} carrying an integer tag (exported as [args.v]) — e.g.
    a job index or trial number. *)

val instant : t -> name -> ts:int -> unit
(** A point event ([ph = "i"], thread scope). *)

val instant_v : t -> name -> ts:int -> v:int -> unit

val counter : t -> name -> ts:int -> v:int -> unit
(** A counter sample ([ph = "C"], exported as [args.value]): Perfetto
    plots consecutive samples of one name as a stepped series. *)

(** {2 GC cycle instants}

    OCaml 5 minor collections are stop-the-world: one domain filling its
    minor heap pauses all of them (see {!Gcstats}). A tracker samples
    the process-wide cycle counters and emits one [gc.minor] /
    [gc.major] instant (valued with the cycle count since the previous
    sample) whenever they advanced — pause markers on the timeline. *)

type gc_track

val gc_track : t -> gc_track
(** A tracker primed with the current cycle counts. Allocates; call at
    setup time, one per instrumented loop. *)

val gc_sample : t -> gc_track -> unit
(** Emit instants for cycles since the last sample. No-op (and
    allocation-free) on {!null}. *)

(** {2 Ambient tracer}

    Mirrors {!Sink}'s ambient sink: fan-out points buried under the
    experiment modules cannot thread a tracer through every signature,
    so they read this process-wide default. {!null} until a front end
    (e.g. [--trace-events FILE]) installs a recording tracer. *)

val set_ambient : t -> unit
val ambient : unit -> t

(** {2 Reading back} *)

val events : t -> int
(** Events currently recorded, summed over all rings. *)

val dropped : t -> int
(** Events discarded because a ring was full, summed over all rings. *)

val export : t -> Json.t
(** All rings merged by timestamp into one Chrome trace-event array:
    [thread_name] metadata per domain, then every event as
    [{"name", "ph", "ts", "pid": 1, "tid": <domain>, ...}] with [ts]/
    [dur] in microseconds, then one [tracer.dropped] instant per ring
    that overflowed. Deterministic: ties sort by [(ts, tid, ring
    index)]. *)

val export_string : t -> string
(** {!export} rendered one compact event per line (what
    [--trace-events FILE] writes). *)

val validate : Json.t -> (unit, string) result
(** Structural check for trace-event documents: a JSON array whose
    elements carry [name]/[ph] strings, numeric [ts], integer
    [pid]/[tid], a non-negative numeric [dur] on ["X"] events, and
    per-[tid] non-decreasing [ts]. *)

val parse : string -> (Json.t, string) result
(** [Json.parse] followed by {!validate}. *)
