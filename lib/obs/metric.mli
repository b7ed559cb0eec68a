(** Typed metric instruments: counters, gauges and fixed-bucket latency
    histograms.

    Every mutation is a single [Atomic] operation (histograms: one per
    touched field), so instruments may be hammered concurrently from
    every domain of the pool without locks, and reads ([value],
    [count], ...) are safe mid-run. Reads are not snapshots of a
    consistent cut across fields — a histogram's [count] and [sum_ns]
    may be one observation apart — which is fine for diagnostics and is
    what keeps the hot path to a handful of atomic adds. *)

module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val create : unit -> t
  val set : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val create : ?bounds:int array -> unit -> t
  (** [bounds] are inclusive upper bucket edges, strictly ascending; an
      implicit overflow bucket catches everything above the last edge.
      @raise Invalid_argument if [bounds] is empty or not ascending. *)

  val observe : t -> int -> unit
  (** Record one (nanosecond) observation. Thread-safe, lock-free. *)

  val count : t -> int

  val sum_ns : t -> int

  val min_ns : t -> int
  (** [max_int] when empty (so [min]/[max] folds stay branch-free). *)

  val max_ns : t -> int
  (** [min_int] when empty. *)

  val mean_ns : t -> float
  (** [nan] when empty. *)

  val buckets : t -> (int * int) array
  (** [(upper_edge, count)] pairs in edge order; the overflow bucket is
      reported with edge [max_int]. Counts are cumulative-free (each
      bucket holds only its own range). *)
end
