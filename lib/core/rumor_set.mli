(** Compact sets of rumor identifiers.

    In the gossip problem (Definition 1) every agent starts with a
    distinct rumor and must learn all [k] of them, so each agent carries a
    set [M_a(t)] of known rumors. Sets only ever grow ("agents do not
    forget rumors", §2). This is a fixed-capacity bitset with a cached
    cardinality, sized so the per-step component floods stay cheap:
    unioning two sets costs O(capacity / 64) word operations. The bits
    are padded to whole 64-bit words, and bits at or above [capacity]
    are never set. *)

type t

val create : capacity:int -> t
(** The empty set over rumor ids [0 .. capacity-1].
    @raise Invalid_argument if [capacity < 0]. *)

val singleton : capacity:int -> int -> t
(** @raise Invalid_argument if the id is out of range. *)

val capacity : t -> int

val cardinal : t -> int
(** Number of rumors known. O(1). *)

val is_full : t -> bool
(** Whether all [capacity] rumors are known. *)

val mem : t -> int -> bool
(** @raise Invalid_argument if the id is out of range. *)

val add : t -> int -> int
(** Insert a rumor id; returns 1 if it was new, 0 if already present.
    @raise Invalid_argument if the id is out of range. *)

val union_into : src:t -> dst:t -> int
(** [union_into ~src ~dst] adds every rumor of [src] to [dst], returning
    the number of rumors that were new to [dst]. [src] is unchanged.
    @raise Invalid_argument if capacities differ. *)

val copy : t -> t

(** {1 Component-flood primitives}

    A component flood seeds one accumulator per component with
    {!copy_into}, adds every other member with {!or_into}, {!recount}s
    it once, and writes it back to each member with {!assign_superset}.
    Each is one loop over the words.
    @raise Invalid_argument if capacities differ. *)

val copy_into : src:t -> dst:t -> unit
(** [dst] becomes equal to [src], cardinal included — {!copy} without
    the allocation. *)

val or_into : src:t -> dst:t -> unit
(** Adds every rumor of [src] to [dst] without counting: [dst]'s
    cardinal is stale until {!recount}. *)

val recount : t -> unit
(** Recompute the cardinal from the bits, after {!or_into}. *)

val assign_superset : src:t -> dst:t -> int
(** For [dst] a subset of [src] (a member's set and its component's
    union): [dst] becomes equal to [src], and the result is
    [cardinal src - cardinal dst], the number of rumors new to [dst].
    Equal cardinals write nothing, so the subset relation is the
    caller's obligation; it is not checked. *)

val equal : t -> t -> bool

val iter : t -> f:(int -> unit) -> unit
(** Visit known rumor ids in increasing order. *)
