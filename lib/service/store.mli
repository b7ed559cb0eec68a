(** Content-addressed result cache.

    One entry per engine run, keyed by [(cell hash, seed, trial)] —
    exactly the triple that determines a run's result byte-for-byte
    (see {!Scenario.Ast.cell_hash}). Entries live under
    [<root>/cache/<hash>/<seed>-<trial>.json] and hold the raw result
    payload bytes; {!Runner} composes response lines from those bytes
    unmodified, which is what makes a warm sweep byte-identical to the
    cold one that populated it.

    Writes are atomic (temp file + [Sys.rename] in the same directory),
    so a killed daemon never leaves a torn entry: an interrupted run
    either cached a result completely or not at all — the property
    checkpoint resume ({!Checkpoint}) relies on.

    With a recording sink attached the store counts
    [service.cache.hits] / [service.cache.misses] into the registry. *)

type t

val create : ?metrics:Obs.Sink.t -> root:string -> unit -> t
(** Opens (creating directories as needed) the cache under
    [<root>/cache]. [metrics] defaults to {!Obs.Sink.null}. *)

val get : t -> hash:string -> seed:int -> trial:int -> string option
(** The cached payload bytes, or [None]. Counts a hit or a miss. *)

val put : t -> hash:string -> seed:int -> trial:int -> string -> unit
(** Atomically persist a payload. Overwrites an existing entry with
    (by determinism) identical bytes — last write wins either way. *)

(** {2 Shared file primitives} (used by {!Checkpoint} and the daemon's
    artifact writer so every on-disk write in the service is atomic the
    same way) *)

val write_atomic : string -> string -> unit
(** Write [bytes] to [path] via a same-directory temp file + rename,
    creating parent directories as needed. *)

val read_file : string -> string
(** The file's bytes. @raise Sys_error if unreadable. *)
