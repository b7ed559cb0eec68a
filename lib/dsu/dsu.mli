(** Disjoint-set union (union–find) over integer elements [0, n).

    Used every simulation step to compute the connected components of the
    visibility graph [G_t(r)]: agents are elements, and each pair within
    transmission range is {!union}ed. Path compression plus union by size
    give effectively-constant amortised operations.

    The structure is mutable and epoch-stamped: {!reset} is O(1) (it
    bumps an epoch counter and elements are lazily re-initialised as
    singletons on first touch), so the simulator reuses one allocation
    across all steps without paying an O(n) sweep per step. {!dissolve}
    supports *incremental* component maintenance through
    [Spatial.reconcile]: instead of resetting, a caller dissolves only
    the members of grid nodes whose occupancy changed and re-unions
    them, leaving untouched components intact across steps. (The engine
    resets and re-unions every step instead; the only caller is
    bench/suite/probes.ml, and ROADMAP item 2 deletes {!dissolve}.)

    {b Touched log.} Every element stamped in the current epoch — healed
    by its first {!find}, {!union}, {!same_set}, {!set_size}, {!groups}
    or {!dissolve} since the last {!reset} — is listed once in the
    touched log ({!touched_count}, {!touched_roots}). The log is
    complete for non-trivial sets: a union stamps both of its elements,
    so every member of a set of size > 1 is listed, and an element
    outside the log is a singleton. A caller that only acts on non-trivial sets
    (the exchange floods) therefore costs O(elements on an edge), not
    O(n): one {!touched_roots} pass reads every logged element and its
    root. Fresh stamps start below the first epoch, so this holds on a
    structure that was never reset as well. *)

type t

val create : int -> t
(** [create n] is a forest of [n] singleton sets, elements [0 .. n-1].
    @raise Invalid_argument if [n < 0]. *)

val length : t -> int
(** Number of elements. *)

val reset : t -> unit
(** Return every element to its own singleton set. O(1): starts a new
    epoch and empties the touched log; stale entries are healed lazily
    on first touch. *)

val touched_count : t -> int
(** Number of elements stamped since the last {!reset} (or {!create}):
    the length of the touched log. At most {!length}. *)

val touched_roots : t -> members:int array -> roots:int array -> int
(** The root pass: [touched_roots t ~members ~roots] writes the touched
    log, in stamping order, into [members.(0 .. len-1)], and at the same
    index into [roots] the root of that element's set, or [-1] where
    the element is a singleton; it returns [len = touched_count t].
    One loop inside this module, with path halving, so a caller that
    acts on non-trivial sets (the exchange floods) makes no call per
    element. The arrays are the caller's scratch: only their first
    [len] entries are written.
    @raise Invalid_argument if either array is shorter than
    [touched_count t]. *)

val dissolve : t -> int -> unit
  [@@seam "bench/suite/probes.ml; goes with ROADMAP item 2"]
(** [dissolve t i] detaches element [i] into a singleton of the current
    epoch *without* starting a new epoch, leaving all other sets intact.

    Soundness invariant (caller's obligation): between two queries,
    dissolves must cover whole sets — if any member of a set is
    dissolved, every member must be, before new unions touch any of
    them. [Spatial.reconcile] satisfies this because at radius 0 a
    component is exactly the population of one grid node, and it
    dissolves every current member of every dirty node. Partial
    dissolution would leave surviving members pointing at a recycled
    root with a stale size. Taints {!set_count}'s O(1) counter
    (recomputed on demand). Called only by bench/suite/probes.ml
    (directly and through [Spatial.reconcile]) and by tests; ROADMAP
    item 2 deletes it. *)

val find : t -> int -> int
  [@@seam "bench/suite/probes.ml; goes with ROADMAP item 2"]
(** Canonical representative of the element's set. Performs path
    compression. @raise Invalid_argument if out of range. *)

val union : t -> int -> int -> bool
(** Merge the two elements' sets. Returns [true] iff they were previously
    in different sets. *)

val same_set : t -> int -> int -> bool
  [@@seam "test_dsu, test_spatial: connectivity oracle"]
(** Whether the two elements currently share a set. *)

val set_size : t -> int -> int [@@seam "test_dsu, test_engine"]
(** Size of the set containing the element. *)

val set_count : t -> int
(** Current number of disjoint sets. *)

val max_union_size : t -> int
(** Running maximum of merged-set sizes since the last {!reset} (O(1)).
    In an epoch with no {!dissolve}, this is the size of the largest
    set — the "largest island" of Lemma 6 — for any structure: every
    multi-element set's final size is produced by its last union, and
    with no unions all sets are singletons (the counter starts at
    [min n 1]). After a dissolve the counter may overstate the current
    maximum; incremental epochs need an external occupancy bound. *)

val iter_sets : t -> f:(representative:int -> members:int list -> unit) -> unit
(** Iterate over every set, passing its representative and full member
    list. Member lists are in increasing order. O(n) total. *)

val groups : t -> int list array [@@seam "test_dsu"]
(** [groups t] is an array indexed by representative; entry [r] holds the
    members of [r]'s set (increasing order) and non-representative entries
    hold [[]]. O(n). *)
