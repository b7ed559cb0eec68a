(** Replication and parameter-sweep helpers shared by all experiments.

    Every experiment point is replicated over independent trials; a trial
    is identified by its index alone, so any row of any table can be
    reproduced in isolation. Timed-out runs are counted and contribute
    the step cap as a (conservative) completion-time sample rather than
    being silently dropped.

    Trial replication fans out over the ambient domain pool
    ({!Runtime.Pool.ambient}); because each trial is keyed by its index
    alone, the measured values are independent of the pool size. With
    the default ambient size of 1 the behaviour is the exact sequential
    loop of old.

    When the ambient metrics sink ({!Obs.Sink.ambient}) records, every
    trial additionally reports wall-clock ([sweep.trial_ns]), simulated
    steps ([sweep.trial_steps]) and timeout/trial counters into it —
    aggregated over all sweeps of a run, purely observational, never
    affecting the measured values. *)

type measured = {
  times : float array;  (** one completion time per trial *)
  timeouts : int;  (** how many of them hit the step cap *)
}

val samples :
  trials:int -> run:(trial:int -> Mobile_network.Engine.report) -> measured
(** Generic trial replication over any engine: [run ~trial] performs one
    run keyed by its trial index and returns its report. The
    continuum and floor-plan simulators replicate through this, so
    their trials fan out over the same pool and report into the same
    [sweep.*] metrics as the grid model's {!completion_times} (which
    also runs the grid's dense baseline).
    @raise Invalid_argument if [trials <= 0]. *)

val completion_times :
  trials:int -> cfg:(trial:int -> Mobile_network.Config.t) -> measured
(** Run [trials] independent simulations of the given configuration
    family. When {!Obs.Series.ambient_dir} is set (the CLI's
    [--series-dir DIR]), trial 0 of each call additionally records a
    per-step {!Obs.Series} and writes it to
    [DIR/<sanitized config>.series.json] — pure observation, so
    results (and experiment output bytes) are unchanged at any
    [--jobs]. @raise Invalid_argument if [trials <= 0]. *)

val trajectory :
  Mobile_network.Config.t -> (Mobile_network.Simulation.t -> int) -> int array
(** [trajectory cfg get] runs one simulation and returns [get] read
    after the initial placement and after every step: [steps + 1]
    values, index [i] the state after step [i]. One column of the
    per-step record, for experiments that reason about the trajectory
    itself (E6's frontier, E14's informed count). *)

val probability :
  trials:int -> f:(trial:int -> bool) -> float
(** Empirical success probability over [trials] runs of an indicator. *)

val doublings : from:int -> count:int -> int list
(** [doublings ~from ~count] is [from; 2*from; ...] ([count] values).
    @raise Invalid_argument if [from <= 0] or [count < 0]. *)

val geometric : from:float -> factor:float -> count:int -> float list
(** Geometric grid of floats. @raise Invalid_argument unless
    [from > 0.], [factor > 1.], [count >= 0]. *)

val median : float array -> float
(** @raise Invalid_argument on empty input. *)
