(** Per-step timeseries recorder: the dissemination {e curve}, bounded.

    Where {!Metric} aggregates and {!Tracer} records individual events,
    a series keeps one integer row per simulation step — informed count,
    component count, per-phase cost — so the trajectory the paper
    reasons about (how the informed set grows toward the Θ̃(n/√k)
    broadcast bound) is itself an exportable artifact.

    {b Bounded memory for any run length.} A recorder holds fewer than
    [capacity] rows (one {!Bigarray} row per column plus a step vector).
    The storage starts small and doubles on demand up to [capacity], so
    memory follows the rows actually recorded; between doublings a
    commit allocates nothing. When the buffer reaches [capacity], every
    other row is dropped and the sampling stride doubles: after any
    number of steps the series holds between [capacity/2] and
    [capacity - 1] rows, uniformly spaced at a power-of-two stride from
    step 0. Row [i] always holds step [i * stride]. A recorder that will
    see fewer than [capacity] commits is therefore an exact stride-1
    record (what [simulate --trace-out] uses).

    {b The disabled path costs nothing.} Against {!null} every
    operation reduces to an immediate-value branch: no clock read, no
    store, no allocation — the same discipline as the null {!Sink} and
    {!Tracer}. Instrumented code resolves {!col} ids once, outside its loops, and
    gates per-step work on {!want}.

    {b Recording is pure observation.} A recorder must never influence
    random streams or results; runs are byte-identical with a series
    attached or not (enforced by [test_series]).

    A recorder is single-writer: one engine instance owns one recorder.

    {2 Export format}

    {!export_string} renders NDJSON: a header line

    {v
    {"schema":"mobisim-series/1","columns":["step",...],"stride":S,"rows":N,"meta":{...}}
    v}

    followed by one compact JSON array of integers per row, step first.
    {!to_json} renders the same document as a single object with the
    rows under ["data"]. {!validate} accepts the combined form;
    {!parse} accepts either rendering and returns the combined form. *)

type t

val null : t
(** The disabled recorder: every operation is a no-op. *)

val default_capacity : int
(** Rows retained when [create] is not told otherwise (1024). *)

val schema : string
(** The schema tag, ["mobisim-series/1"]. *)

val create : ?capacity:int -> columns:string list -> unit -> t
(** A recording series over the named integer columns. The ["step"]
    column is implicit and always first in exports.
    @raise Invalid_argument if [capacity < 2], [columns] is empty or
    has duplicates, or a column is named ["step"]. *)

val enabled : t -> bool
(** [false] iff the recorder is {!null} — the one branch instrumented
    code gates on. *)

(** {2 Recording} *)

type col = int
(** A resolved column index. Resolve once with {!col}, outside loops. *)

val col : t -> string -> col
(** Resolve a column by name. On {!null} returns a dummy accepted by
    {!stage}. @raise Invalid_argument on an unknown name. *)

val want : t -> step:int -> bool
(** Is [step] on the current stride? [false] on {!null} — the gate for
    expensive staging work (e.g. a GC stat read). *)

val stage : t -> col -> int -> unit
(** Set one cell of the pending row. Allocation-free. *)

val commit : t -> step:int -> unit
(** Append the staged row for [step] (ignored when [step] is off the
    current stride), decimating at capacity. Allocation-free except
    when it doubles the row storage. *)

(** {2 Reading back} *)

val rows : t -> int
(** Rows currently retained. *)

val stride : t -> int
(** Current sampling stride (a power of two; 1 until the first
    decimation). *)

val columns : t -> string list
(** Exported column names, ["step"] first. [[]] on {!null}. *)

val column : t -> string -> int array
(** A copy of one column's retained values (accepts ["step"]).
    Allocates; for tests and post-run export, not hot loops. *)

(** {2 Export} *)

val to_json : ?meta:(string * Json.t) list -> t -> Json.t
(** The combined document: header fields plus all rows under ["data"].
    [meta] adds caller context (config, cell hash, …) under ["meta"]. *)

val export_string : ?meta:(string * Json.t) list -> t -> string
(** NDJSON: compact header line, then one compact row per line (what
    [--series FILE] writes). *)

val validate : Json.t -> (unit, string) result
(** Structural check of the combined document: schema tag, ["step"]-
    first string columns, power-of-two stride, integer rows of the
    declared width whose steps strictly increase and sit on the
    stride. *)

val parse : string -> (Json.t, string) result
(** Parse either rendering, validate, and return the combined form. An
    NDJSON row that is not JSON is reported at its line in the file
    (the header is line 1): ["invalid series row: L:C: JSON parse
    error: ..."]. *)

(** {2 Ambient series directory}

    Mirrors {!Sink.ambient}: the experiment fan-out cannot thread a
    recorder through every signature, so [mobisim exp --series-dir DIR]
    installs a destination directory and the sweep helpers write one
    series file per sweep point (trial 0) into it. [None] (the default)
    disables recording. *)

val set_ambient_dir : string option -> unit
val ambient_dir : unit -> string option
