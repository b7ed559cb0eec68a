(** Statistics for experiment analysis: online moments, descriptive
    summaries, quantiles, least-squares fits (used to recover
    the paper's scaling exponents from log-log sweeps) and bootstrap
    confidence intervals.

    All estimators here are textbook; they exist in-repo because the
    sealed environment ships no numerics library. *)

(** Numerically stable streaming moments (Welford). *)
module Online : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit

  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; 0 with fewer than two observations. *)

  val merge : t -> t -> t [@@seam "test_stats"]
  (** Combine two accumulators as if all observations were seen by one
      (parallel Welford / Chan et al.). Inputs are unchanged. *)
end

(** Descriptive statistics over a sample held in memory. *)
module Summary : sig
  type t = {
    count : int;
    mean : float;
    stddev : float;
    min : float;
    max : float;
    median : float;
    p10 : float;
    p90 : float;
  }

  val of_array : float array -> t
  (** @raise Invalid_argument on empty input. *)

  val quantile : float array -> q:float -> float
  (** Linear-interpolation quantile, [0. <= q <= 1.]. Does not modify the
      input. @raise Invalid_argument on empty input or [q] out of
      range. *)

  val mean_ci95 : float array -> float * float
  (** Mean plus/minus a 95% normal-approximation half-width
      [(mean, halfwidth)]. Half-width is 0 for samples of size < 2. *)
end

(** Ordinary least squares on (x, y) pairs, plus the log-log convenience
    used to fit scaling exponents. *)
module Regression : sig
  type fit = {
    slope : float;
    intercept : float;
    r_squared : float;  (** 1.0 when the fit is exact or y is constant *)
    n : int;
  }

  val log_log : (float * float) array -> fit
  (** Fit [log y = slope * log x + intercept] by ordinary least squares
      on the logs: [slope] estimates the scaling exponent of
      [y ~ x^slope]. Points with non-positive coordinates are rejected.
      @raise Invalid_argument if fewer than two usable points remain, or
      if all usable x values are identical. *)

  (** Two-predictor least squares, used for joint scaling fits such as
      [T_B ~ n^a * k^b] over a 2-D parameter sweep. *)
  type fit2 = {
    intercept2 : float;
    slope_x : float;  (** coefficient of the first predictor *)
    slope_y : float;  (** coefficient of the second predictor *)
    r_squared2 : float;
    n2 : int;
  }

  val log_log2 : (float * float * float) array -> fit2
  (** Fit [log z = intercept2 + slope_x * log x + slope_y * log y] by
      least squares on the logs (normal equations): the two slopes
      estimate the exponents of [z ~ x^a y^b]. Points with non-positive
      coordinates are dropped.
      @raise Invalid_argument if fewer than three usable points remain
      or the design is degenerate (collinear). *)

  val predict2 : fit2 -> float -> float -> float
  (** Evaluate the fitted plane (in the space the fit was made). *)
end


(** Pearson chi-square goodness-of-fit testing, used for the
    stationarity experiments (is the agent distribution still uniform
    after T steps?). Critical values come from the Wilson–Hilferty
    approximation, accurate to well under 1% for df >= 3. *)
module Chi_square : sig
  val uniform_statistic : int array -> float
  (** Pearson's X² = Σ (O - E)² / E of the counts against the uniform
      distribution over their own total.
      @raise Invalid_argument on empty input or zero total. *)

  val critical_value : df:int -> confidence:float -> float
  (** Upper [confidence] quantile of the chi-square distribution with
      [df] degrees of freedom (Wilson–Hilferty, from the inverse
      standard-normal CDF of Beasley–Springer–Moro, absolute error below
      1e-7 on (1e-10, 1 - 1e-10)). Counts are consistent with uniformity
      at that level when their {!uniform_statistic} does not exceed it.
      @raise Invalid_argument if [df <= 0] or [confidence] outside
      (0, 1). *)
end

(** Percentile bootstrap for arbitrary statistics of a sample. *)
module Bootstrap : sig
  val ci :
    Prng.t -> float array -> stat:(float array -> float) ->
    ?replicates:int -> ?level:float -> unit -> float * float
    [@@seam "bench/suite/sample.ml; test_stats"]
  (** [ci rng sample ~stat ()] is a percentile-bootstrap confidence
      interval (default [?replicates = 1000], [?level = 0.95]) for
      [stat sample]. @raise Invalid_argument on empty input. *)
end
