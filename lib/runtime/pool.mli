(** Deterministic domain-pool scheduler.

    A fixed-size pool of OCaml 5 [Domain] workers sharing one work
    queue, with a fan-out API over indexed job lists. The contract that
    makes parallelism safe for the experiment harness is the one the
    engine was designed around: a job is identified by its index alone
    (every simulation derives all randomness from [(seed, trial)]), so
    results never depend on evaluation order. The pool preserves that
    observable determinism:

    - {b Submission order}: [map] and [init] always return
      results in submission order, regardless of completion order.
    - {b Sequential identity}: a pool with [jobs = 1] runs every job
      inline on the calling domain, in order, with no worker domains —
      bit-for-bit identical to the plain [List.map] / [Array.init] code
      it replaces (enforced by test).
    - {b Exceptions}: with [jobs = 1] an exception propagates
      immediately, exactly like the sequential code. With [jobs > 1] the
      pool drains every submitted job, then re-raises the exception of
      the {e lowest-indexed} failed job — the same exception the
      sequential run would have raised first.
    - {b Nesting}: a job may itself call [map]/[init] on a
      pool. The nested call does not block a worker: it enqueues its
      sub-jobs and then {e helps}, executing queued jobs from the shared
      queue until its own are done. This makes trial-level and
      experiment-level fan-out compose without deadlock and keeps every
      domain busy even when outer jobs are imbalanced.

    Progress callbacks ([on_progress], [on_result]) are only ever
    invoked on the domain that called [map]: completion events are
    queued by workers and marshalled back to that coordinating domain,
    so live table rendering needs no locking of its own. *)

type t

val check_jobs : int -> (unit, string) result
(** [Ok ()] for a pool size in [[1, 127]] (OCaml 5.1 runs at most
    128 domains, the calling one included); otherwise a message such
    as ["must be between 1 and 127 (got 0)"], for a front end to prefix
    with its flag's name. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs] worker domains ([jobs = 1] spawns
    none; such a pool is purely sequential). Metrics are off until
    {!set_metrics} attaches a sink.
    @raise Invalid_argument if [jobs < 1] or [jobs > 127], before
    spawning anything. *)

val shutdown : t -> unit
(** Join all workers. Idempotent. Outstanding jobs are completed first;
    calling [map] after shutdown raises [Invalid_argument]. *)

val with_pool :
  ?metrics:Obs.Sink.t -> ?tracer:Obs.Tracer.t -> jobs:int -> (t -> 'a) -> 'a
(** [create], run, then [shutdown] (also on exception). *)

val map :
  ?on_progress:(done_:int -> total:int -> job:int -> unit) ->
  ?on_result:(int -> 'b -> unit) ->
  t ->
  f:(int -> 'a -> 'b) ->
  'a list ->
  'b list
(** [map pool ~f [x0; x1; ...]] computes [[f 0 x0; f 1 x1; ...]],
    results in submission order. [on_progress] fires once per completed
    job, in completion order; [on_result] fires once per job, in
    {e submission} order, as soon as the ordered prefix up to that job
    has completed — this is what incremental table rendering hangs off.
    Both run on the calling domain. *)

val init : t -> n:int -> f:(int -> 'b) -> 'b array
(** [init pool ~n ~f] is a parallel [Array.init n f] (submission order
    preserved). Items are batched into contiguous chunks (a few per
    worker) before being enqueued, so micro-jobs such as single trials
    do not drown in scheduling overhead; chunking depends only on
    [(n, jobs pool)] and never changes the result.
    @raise Invalid_argument if [n < 0]. *)

val recommended_jobs : ?cap:int -> unit -> int
(** [Domain.recommended_domain_count ()] clamped to [[1, cap]]
    ([cap] defaults to 8). The default for every [--jobs] flag. *)

(** {2 Observability}

    With a recording sink attached, the pool reports into the sink's
    registry: [pool.queue_wait_ns] (histogram, submission to execution
    start), [pool.task_ns] (histogram, job body latency), and per
    executing domain [pool.domain<i>.*] / [pool.coordinator.*] rows
    with [busy_ns], [jobs_run] and [gc.*] counters — minor/major
    collections, promoted/minor/major words, sampled around each job on
    the domain that ran it. The coordinator row covers the calling
    domain: all jobs at [jobs = 1], and jobs it executes while helping
    a nested fan-out.

    {b Determinism note:} metrics are pure observation and must never
    influence scheduling or results. Attaching a sink wraps each job in
    timing/GC accounting but submits the same jobs to the same queue in
    the same order; the pool's ordering guarantees above are unchanged,
    and the rendered output of any fan-out is byte-identical with
    metrics on or off, at any [jobs] value (enforced by [test_obs]). *)

val set_metrics : t -> Obs.Sink.t -> unit
(** Attach (or, with {!Obs.Sink.null}, detach) a metrics sink. Takes
    effect for subsequently submitted jobs; safe between fan-outs. *)

val publish_stats : t -> unit
(** Write the pool's current statistics into the attached registry as gauges
    ([pool.queue_depth], [pool.wall_s], [<row>.busy_fraction]) so they
    appear in {!Obs.Snapshot} exports. Front ends call this once after
    a run, before writing [--metrics FILE]. No-op without a sink. *)

(** {2 Ambient pool}

    One process-wide pool shared by every fan-out point that cannot
    thread a [t] through its signature (e.g. [Sweep.completion_times],
    called from 29 experiment modules). Defaults to [jobs = 1], i.e.
    exactly the sequential behaviour, until a front end opts in. *)

val set_ambient_jobs : int -> unit
(** Set the ambient pool size. If an ambient pool of a different size
    already exists it is shut down and recreated lazily.
    @raise Invalid_argument if {!check_jobs} rejects the size, before
    any pool is touched: the ambient size stays as it was. *)

val set_ambient_metrics : Obs.Sink.t -> unit
(** Sink for the ambient pool: applied to the existing ambient pool if
    one is live, and remembered for lazy (re)creation. Front ends set
    this together with {!Obs.Sink.set_ambient} when [--metrics] is
    given. *)

val set_ambient_tracer : Obs.Tracer.t -> unit
(** Tracer for the ambient pool, with the same apply-now-and-remember
    semantics as {!set_ambient_metrics}. Front ends set this together
    with {!Obs.Tracer.set_ambient} when [--trace-events] is given. *)

val ambient_jobs : unit -> int
  [@@seam "test_runtime: the ambient size, read without spawning a pool"]
(** Current ambient pool size (without forcing pool creation). *)

val ambient : unit -> t
(** The ambient pool, created on first use. *)
