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

  val count : t -> int [@@seam "test_stats"]

  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; 0 with fewer than two observations. *)

  val stddev : t -> float [@@seam "test_prng"]

  val min : t -> float [@@seam "test_stats"]
  (** [infinity] when empty. *)

  val max : t -> float [@@seam "test_stats"]
  (** [neg_infinity] when empty. *)

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

  val pp : Format.formatter -> t -> unit [@@seam "test_stats"]
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

  val ols : (float * float) array -> fit [@@seam "test_stats"]
  (** @raise Invalid_argument with fewer than two distinct x values. *)

  val log_log : (float * float) array -> fit
  (** Fit [log y = slope * log x + intercept]: [slope] estimates the
      scaling exponent of [y ~ x^slope]. Points with non-positive
      coordinates are rejected. @raise Invalid_argument if fewer than two
      usable points remain. *)

  val predict : fit -> float -> float [@@seam "test_stats"]
  (** Evaluate the fitted line at [x] (in the space the fit was made:
      for {!log_log} pass [log x] and exponentiate yourself, or use
      {!predict_power}). *)

  val predict_power : fit -> float -> float [@@seam "test_stats"]
  (** Treat the fit as a power law: [exp intercept *. x ** slope]. *)

  (** Two-predictor least squares, used for joint scaling fits such as
      [T_B ~ n^a * k^b] over a 2-D parameter sweep. *)
  type fit2 = {
    intercept2 : float;
    slope_x : float;  (** coefficient of the first predictor *)
    slope_y : float;  (** coefficient of the second predictor *)
    r_squared2 : float;
    n2 : int;
  }

  val ols2 : (float * float * float) array -> fit2 [@@seam "test_stats"]
  (** [ols2 [| (x, y, z); ... |]] fits [z = intercept2 + slope_x * x +
      slope_y * y] by least squares (normal equations).
      @raise Invalid_argument with fewer than three points or a
      degenerate (collinear) design. *)

  val log_log2 : (float * float * float) array -> fit2
  (** Fit [log z = intercept2 + slope_x * log x + slope_y * log y]:
      the two slopes estimate the exponents of [z ~ x^a y^b]. Points
      with non-positive coordinates are dropped.
      @raise Invalid_argument if fewer than three usable points remain
      or the design is degenerate. *)

  val predict2 : fit2 -> float -> float -> float
  (** Evaluate the fitted plane (in the space the fit was made). *)
end


(** Pearson chi-square goodness-of-fit testing, used for the
    stationarity experiments (is the agent distribution still uniform
    after T steps?). Critical values come from the Wilson–Hilferty
    approximation, accurate to well under 1% for df >= 3. *)
module Chi_square : sig
  val statistic : observed:int array -> expected:float array -> float
    [@@seam "test_stats"]
  (** Pearson's X² = Σ (O - E)² / E.
      @raise Invalid_argument on length mismatch, empty input, or a
      non-positive expected count. *)

  val uniform_statistic : int array -> float
  (** Test counts against the uniform distribution over their own total.
      @raise Invalid_argument on empty input or zero total. *)

  val critical_value : df:int -> confidence:float -> float
  (** Upper [confidence] quantile of the chi-square distribution with
      [df] degrees of freedom (Wilson–Hilferty).
      @raise Invalid_argument if [df <= 0] or [confidence] outside
      (0, 1). *)

  val test_uniform : counts:int array -> confidence:float -> bool
    [@@seam "test_walk: the uniformity check"]
  (** [true] when the counts are consistent with uniformity at the given
      confidence level (statistic below the critical value). *)
end

val normal_quantile : float -> float [@@seam "test_stats"]
(** Inverse standard-normal CDF (Beasley–Springer–Moro), absolute error
    below 1e-7 on (1e-10, 1 - 1e-10).
    @raise Invalid_argument outside (0, 1). *)

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
