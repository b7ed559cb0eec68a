(** Closed-form reference curves from the paper and the related work it
    discusses. All are asymptotic shapes up to constants and polylog
    factors; the experiment harness fits measured data against them, it
    never expects absolute agreement.

    [n] is the number of grid nodes, [k] the number of agents. Natural
    logarithms throughout ([log n] factors in the paper are base-free
    inside Θ/O), clamped to at least [1e-9] so that curves stay finite
    and positive at the small parameters experiments use. *)

val broadcast_theta : n:int -> k:int -> float
(** The headline bound: [T_B = Θ~ (n / sqrt k)] (Theorems 1 and 2), as
    the bare shape [n / sqrt k]. *)

val broadcast_lower : n:int -> k:int -> float
(** The explicit lower-bound curve of Theorem 2:
    [n / (sqrt k * log^2 n)]. *)

val gossip_theta : n:int -> k:int -> float
(** [T_G = Θ~ (n / sqrt k)] (Corollary 2): same shape as broadcast. *)

val cover_time_multi : n:int -> k:int -> float
(** §4 by-product: cover time of [k] independent walks,
    [O (n log^2 n / k + n log n)]. *)

val extinction_time : n:int -> k:int -> float
(** §4 predator–prey extinction bound, [O (n log^2 n / k)]. *)

val wang_claimed : n:int -> k:int -> float
(** The [Θ((n log n log k) / k)] infection-time claim of Wang et al.
    (§1.1) that this paper refutes: decays like [1/k] instead of the
    correct [1/sqrt k]. *)

val dimitriou_bound : n:int -> k:int -> float
(** The general [O (t* log k)] infection bound of Dimitriou et al.
    specialised to the grid: [O (n log n log k)] (§1.1) — independent of
    [k] except for the log factor, hence far above the truth for large
    [k]. *)

val peres_polylog : k:int -> float
(** Above the percolation point, Peres et al. obtain a broadcast time
    polylogarithmic in [k]; rendered as [log^2 k] for plotting. *)

val percolation_radius : n:int -> k:int -> float
(** The critical radius [r_c ~ sqrt (n / k)] (§1) around which a giant
    component emerges ({!Percolation} measures it).
    @raise Invalid_argument if [n <= 0] or [k <= 0]. *)

val continuum_critical_radius : box_side:float -> agents:int -> float
(** The continuum analogue of {!percolation_radius}: the Gilbert-graph
    percolation radius for [agents] uniform points in the box,
    [sqrt (1.436 / lambda)] with [lambda = agents / box_side²].
    @raise Invalid_argument if [box_side] is not positive (NaN
    included) or [agents <= 0]. *)

val subcritical_radius : n:int -> k:int -> float
(** Theorem 2's radius threshold [sqrt (n / (64 e^6 k))], below which
    its lower bound applies; always well below {!percolation_radius}.
    @raise Invalid_argument if [n <= 0] or [k <= 0]. *)

val island_parameter : n:int -> k:int -> float
(** Lemma 6's [gamma = sqrt (n / (4 e^6 k))]: islands of parameter
    [gamma] have at most [log n] agents w.h.p.
    @raise Invalid_argument if [n <= 0] or [k <= 0]. *)

val island_size_bound : n:int -> float
(** Lemma 6: below the percolation point no island exceeds [log n]
    agents w.h.p. *)

val meeting_probability_lower : d:int -> float
(** Lemma 3: two walks at distance [d] meet within [d^2] steps, inside
    the lens [D], with probability at least [c3 / max(1, log d)]; the
    returned shape is [1 / max(1, log d)]. *)

val hitting_probability_lower : d:int -> float
(** Lemma 1: a walk visits a node at distance [d] within [d^2] steps
    with probability at least [c1 / max(1, log d)]; shape
    [1 / max(1, log d)]. *)

val displacement_tail : lambda:float -> float
(** Lemma 2.1: [P(displacement >= lambda * sqrt l) <= 2 exp(-lambda^2 / 2)]. *)

val range_lower : steps:int -> float
(** Lemma 2.2: with probability > 1/2 a walk visits at least
    [c2 * l / log l] distinct nodes in [l] steps; shape [l / log l]. *)

val frontier_speed_bound : n:int -> k:int -> float [@@seam "test_theory"]
(** Lemma 7: over a window of [gamma^2 / (144 log n)] steps the informed
    frontier advances at most [(gamma log n) / 2]; returned as the
    implied max speed (distance per step),
    [72 log^2 n / gamma]. *)
