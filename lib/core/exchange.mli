(** The exchange layer of the simulation engine: what happens on the
    visibility graph once it is built.

    Each policy implements one information-transfer rule of the paper or
    its baselines: component flooding (the paper's "radio is faster than
    motion" rule, §2), the single-hop ablation (one edge per step — the
    Clementi et al. exchange of §1.1), and predator–prey catching. The
    gossip variants carry full rumor sets instead of one bit.

    A {!t} value bundles the knowledge state (who is informed, which
    rumors each agent holds) with {e reused scratch}: one
    population-sized mark array, and the root-pass arrays, slot sets
    and pair logs, grown on first use and kept, so a warm exchange step
    allocates only the small closures passed to [iter_pairs].

    No policy walks the whole population: each costs time in the agents
    on a visibility edge this step, which below the percolation point is
    a small fraction of [k] (costs are stated per policy below).

    The state is deliberately transparent — it is the engine's working
    set, mutated in place by the policies; treat it as internal unless
    you are building an engine. *)

(** How information crosses the visibility graph ([Config.exchange] is
    this type). *)
type mechanism =
  | Flood_component
      (** the paper's model (§2): a rumor crosses an entire connected
          component of [G_t(r)] before the next move — radio is much
          faster than motion *)
  | Single_hop
      (** one visibility edge per time step: the exchange of Clementi et
          al.'s dense model, and the paper's ablation. Below the
          percolation point components are tiny, so this barely differs
          from flooding — measuring that difference is exactly what
          validates the paper's modelling assumption (experiment A1) *)

type t = {
  population : int;  (** number of individuals (agents + preys) *)
  predators : int;  (** predator–prey: ids [0, predators) are predators *)
  informed : bool array;
      (** flooding: knows the rumor; predator–prey: predator or caught *)
  rumors : Rumor_set.t array;  (** gossip only; [[||]] otherwise *)
  mutable informed_count : int;
  mutable total_known : int;  (** gossip: sum of rumor-set cardinals *)
  mutable live_preys : int;
  marks : int array;
      (** per-agent scratch, all [-1] between calls: flood_single marks
          the roots of informed components, flood_gossip maps a root to
          its slot, single_hop_gossip an agent to its snapshot's slot,
          and the single-hop policies mark the agents they inform *)
  mutable members : int array;
      (** the floods' root pass ({!Dsu.touched_roots}): logged agents;
          grown to twice the touched count when it no longer fits,
          capped at [population] *)
  mutable roots : int array;  (** the root pass: each member's root, or -1 *)
  mutable slots : Rumor_set.t array;
      (** gossip: reusable sets, handed out in first-touch order — one
          accumulator per component, or one snapshot per agent on an
          edge; grown by doubling *)
  slot_owners : Intbuf.t;  (** gossip: the root or agent of each slot in use *)
  newly : Intbuf.t;  (** single-hop: the agents marked this step *)
  pairs : Intbuf.t;  (** single_hop_gossip flattened pair log *)
}

val create :
  population:int ->
  predators:int ->
  informed:bool array ->
  rumors:Rumor_set.t array ->
  t
(** Fresh exchange state over the given (engine-owned) knowledge arrays.
    Counters start at zero — the engine sets [informed_count],
    [total_known] and [live_preys] to match its initial placement.
    The only population-sized scratch is [marks]; the rest grows on
    first use.
    @raise Invalid_argument if [population <= 0], the array sizes
    disagree, or the rumor sets' capacities differ. *)

(** {1 Policies}

    All policies are deterministic, draw nothing from any random stream,
    and update the counters they affect. [iter_pairs f] must call
    [f i j] exactly once per current visibility edge; pair order never
    affects the outcome. *)

val flood_single : t -> dsu:Dsu.t -> unit
(** Every component containing an informed agent becomes fully informed.
    [dsu] holds the current components, over [population] elements.
    Cost: one root pass over the DSU's touched log
    ({!Dsu.touched_roots}), i.e. the agents stamped since its last
    reset — every agent on an edge, plus any a caller found or sized —
    and three loops over its two arrays, with no call per agent.
    @raise Invalid_argument if [dsu] does not hold [population]
    elements. *)

val flood_gossip : t -> dsu:Dsu.t -> unit
(** Every agent's rumor set becomes the union over its component;
    updates [total_known] and rumor-0 based [informed] tracking.
    Cost: one root pass over the touched log, then per member of a
    non-trivial component one rumor-set OR (or copy) into its
    component's accumulator and one write-back, each O(capacity / 64)
    words, and one recount per component.
    @raise Invalid_argument as {!flood_single}. *)

val single_hop_single : t -> iter_pairs:((int -> int -> unit) -> unit) -> unit
(** The rumor crosses each edge once, based on pre-step knowledge.
    Cost: O(edges + newly informed agents). Equal to
    [iter_pairs (hop t); commit_hops t]. *)

val hop : t -> int -> int -> unit
(** {!single_hop_single}'s pair visitor: [hop t i j] marks [j] when
    only [i] is informed, or [i] when only [j] is, once per agent. The
    marked agents stay uninformed until {!commit_hops}, so every pair
    reads pre-step knowledge. A caller that applies [hop t] once and
    keeps the closure runs a single-hop step with no allocation. *)

val commit_hops : t -> unit
(** Inform the agents {!hop} marked since the last commit and clear
    their marks. Cost: O(marked agents). *)

val flood_single_masked :
  t ->
  iter_pairs:((int -> int -> unit) -> unit) ->
  transmits:bool array ->
  accepts:bool array ->
  unit
(** Role-aware single-rumor flood for the fault path: one-hop passes
    over the (already loss/outage-filtered) pair list repeated to a
    fixpoint — the closure of reachability through informed agents with
    [transmits] set, into agents with [accepts] set. Order-independent.
    With all-true roles this equals {!flood_single} over the same
    graph's components. [iter_pairs] may be called several times.
    Cost: O(edges) per pass, and one pass per hop of the longest
    informing path plus one. *)

val single_hop_single_masked :
  t ->
  iter_pairs:((int -> int -> unit) -> unit) ->
  transmits:bool array ->
  accepts:bool array ->
  unit
(** {!single_hop_single} with transmit/accept role gates. Cost:
    O(edges + newly informed agents). *)

val single_hop_gossip : t -> iter_pairs:((int -> int -> unit) -> unit) -> unit
(** Rumor sets merge pairwise across each edge, all reads from pre-step
    snapshots. Cost: one rumor-set copy per agent on an edge plus two
    rumor-set unions per edge. *)

val catch_preys : t -> iter_pairs:((int -> int -> unit) -> unit) -> unit
(** Each prey sharing an edge with a predator is caught (marked
    informed); no chaining through preys. Cost: O(edges). *)
