(** Deterministic, splittable pseudo-random number generation.

    Every stochastic component of the simulator draws from a {!t} stream.
    Streams are created from an integer seed ({!of_seed}) and can be
    {!split} into statistically independent child streams, so that each
    trial of an experiment — and each agent within a trial — owns a private
    generator. This makes every simulation reproducible from
    [(seed, trial_id)] alone and keeps results independent of iteration
    order.

    The generator is Xoshiro256** (Blackman & Vigna), seeded through
    SplitMix64 so that consecutive or otherwise correlated integer seeds
    still produce well-mixed initial states. Neither algorithm is
    cryptographic; both are standard choices for simulation workloads. *)

type t
(** A mutable pseudo-random stream. Not thread-safe: use one stream per
    domain of execution (the simulator allocates one per agent).

    A stream is a view of four 64-bit state words in a store, an
    unboxed [int64] Bigarray that may hold many streams side by side
    ({!split_n}). Streams of one store share no state: drawing from one
    never changes another. *)

val of_seed : int -> t
(** [of_seed seed] creates a fresh stream. Any integer is acceptable,
    including [0] and negative values; SplitMix64 expansion guarantees a
    non-degenerate internal state. *)

val mix_seed : seed:int -> trial:int -> int
(** [mix_seed ~seed ~trial] folds an experiment seed and a trial
    (replicate) index into a single well-mixed integer seed,
    [(seed * 0x9E3779B9) lxor trial] — the one seed-derivation formula
    shared by every simulator and experiment in the repo. Deterministic;
    distinct [(seed, trial)] pairs map to distinct streams in practice. *)

val of_seed_trial : seed:int -> trial:int -> t
(** [of_seed_trial ~seed ~trial] is [of_seed (mix_seed ~seed ~trial)]. *)

val split : t -> t
(** [split parent] advances [parent] and returns a child stream whose
    future output is statistically independent of the parent's. Splitting
    is deterministic: the same parent state always yields the same child. *)

val split_n : t -> int -> t array
(** [split_n master n] is [n] child streams held in one shared store:
    exactly the streams [Array.init n (fun _ -> split master)] gives, in
    the same order, and it leaves [master] in the same state. One store
    of [32 * n] bytes outside the OCaml heap replaces [n] separate
    allocations, which is how the engine seeds its per-agent streams.
    @raise Invalid_argument if [n < 0]. *)

val split_stream : seed:int -> trial:int -> subsystem:int -> t
(** [split_stream ~seed ~trial ~subsystem] is the root stream of one
    subsystem of a [(seed, trial)] run:
    [split (of_seed (mix_seed ~seed ~trial lxor (subsystem * 0x9E3779B9)))].

    This formalises the repo's mix-seed-per-subsystem idiom: every
    stochastic subsystem of a run (walks and exchange, fault adversary,
    ...) derives its own salted root so that adding or removing draws in
    one subsystem can never perturb another's stream. Subsystem [0] is
    reserved for the engine master stream (walks, placement, exchange)
    and is identical to [split (of_seed_trial ~seed ~trial)], the
    pre-existing unsalted derivation; {!Faults} uses subsystems 1 and 2.
    @raise Invalid_argument if [subsystem < 0]. *)

val copy : t -> t
(** [copy stream] is an independent duplicate sharing the current state —
    both copies then produce the same future sequence. Useful in tests. *)

val bits64 : t -> int64
(** Next raw 64-bit output of the generator. *)

val bits30 : t -> int
(** Next 30 uniformly random bits as a non-negative [int]. *)

val int : t -> int -> int
(** [int stream bound] is uniform on [0, bound).
    @raise Invalid_argument if [bound <= 0]. Unbiased (rejection
    sampling, no modulo bias). *)

val int_incl : t -> int -> int -> int
(** [int_incl stream lo hi] is uniform on the inclusive range [lo, hi].
    @raise Invalid_argument if [lo > hi]. *)

val unit_float : t -> float
(** Uniform on [0, 1), with 53 bits of precision. *)

val float : t -> float -> float
(** [float stream bound] is uniform on [0, bound).
    @raise Invalid_argument if [bound <= 0.] or not finite. *)

val bool : t -> bool
(** A fair coin flip. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli stream ~p] is [true] with probability [p].
    @raise Invalid_argument unless [0. <= p <= 1.]. *)

val geometric : t -> p:float -> int
(** [geometric stream ~p] is the number of Bernoulli([p]) failures before
    the first success (support [0, 1, 2, ...]).
    @raise Invalid_argument unless [0. < p <= 1.]. *)

val exponential : t -> rate:float -> float
(** Exponentially distributed with the given [rate] (mean [1. /. rate]).
    @raise Invalid_argument unless [rate > 0.]. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normally distributed (Box–Muller).
    @raise Invalid_argument unless [stddev >= 0.]. *)

val choose : t -> 'a array -> 'a
(** Uniformly random element. @raise Invalid_argument on empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle; uniform over all permutations. *)

val sample_distinct : t -> m:int -> bound:int -> int array
(** [sample_distinct stream ~m ~bound] draws [m] distinct integers
    uniformly from [0, bound), in no particular order (Floyd's algorithm:
    O(m) time and space regardless of [bound]).
    @raise Invalid_argument if [m < 0] or [m > bound]. *)

val fingerprint : t -> int64
(** A digest of the current internal state, for regression tests. Does not
    advance the stream. *)
