(** Deterministic fault injection: a seeded, replayable adversary for
    the unified engine.

    The paper proves its [T_B = Theta~(n / sqrt k)] bounds in a perfectly
    reliable world — no message loss, no radio outages, no churn. This
    module makes that adversarial pressure first-class while staying
    inside the repo's determinism envelope (FoundationDB-style simulation
    testing): every fault decision draws from its own {!Prng} stream,
    derived from the run's [(seed, trial)] via {!Prng.split_stream} with
    a dedicated subsystem index, so

    - a fault-free plan leaves every walk/placement/exchange draw — and
      hence every result — byte-identical to a run without the subsystem;
    - a faulty run replays exactly from [(seed, trial, plan)] alone, at
      any [--jobs] level, because fault draws never touch the engine's
      master stream.

    The module is deliberately engine-agnostic: it only knows agent
    indices and step numbers. The engine asks three questions per step —
    who is present ({!present_mask}), is the radio globally down
    ({!blackout}), is this contact edge alive ({!edge_live}) — and
    consults the static role masks ({!transmits}, {!accepts}) during
    exchange. *)

module Plan : sig
  (** A declarative fault plan: pure data, comparable and printable,
      parsed from JSON by [of_string]/[of_pjson] (the [--faults FILE]
      format) and validated structurally by [validate]. *)

  type window = {
    w_from : int;  (** first step of the outage (inclusive) *)
    w_until : int;  (** first step after the outage (exclusive) *)
    w_agent : int option;
        (** [None]: a global blackout; [Some i]: only agent [i]'s radio
            is down *)
  }

  type churn = {
    leave_p : float;
        (** per-step probability that a present agent departs *)
    return_p : float;
        (** per-step probability that an absent agent returns (at the
            position where it left) *)
  }

  type t = {
    loss_p : float;
        (** per-contact message-loss probability: each visibility edge
            of each step is independently severed with this probability
            (Bernoulli, from the loss stream) *)
    duty : (int * int) option;
        (** periodic global outage [(off, period)]: the radio is down on
            every step [t] with [t mod period < off] — the
            Clementi–Silvestri bounded activity windows as a degenerate
            adversary *)
    windows : window list;  (** explicit outage intervals *)
    churn : churn option;  (** seeded departure/arrival schedule *)
    silent : int list;
        (** byzantine "silent" agents: accept rumors but never transmit
            (they hold the rumor silently) *)
    deaf : int list;
        (** byzantine "deaf" agents: transmit what they hold but never
            accept anything new *)
  }

  val empty : t
  (** No faults at all. An engine given [empty] allocates no fault state
      and runs its pristine hot path. *)

  val is_empty : t -> bool

  val has_roles : t -> bool
  (** Whether any silent/deaf agents are declared. *)

  val max_agent_id : t -> int
  (** Largest agent index referenced anywhere in the plan ([-1] if
      none); callers check it against their population. *)

  val validate : t -> (unit, string) result
  (** Structural validity: probabilities in [0, 1], [0 <= off <= period]
      with [period > 0], [0 <= w_from <= w_until], non-negative agent
      ids. Population-dependent checks belong to the caller (see
      {!max_agent_id}). *)

  val of_pjson : ?filename:string -> Obs.Pjson.t -> (t, string) result
  (** Parse the declarative plan object. Recognised fields (all
      optional): ["loss_p"] (number), ["outage"] (object with ["off"]
      and ["period"]), ["windows"] (list of objects with ["from"],
      ["until"] and optional ["agent"]), ["churn"] (object with
      ["leave_p"] and optional ["return_p"], default [1.0]), ["silent"]
      and ["deaf"] (lists of agent indices). Unknown fields are an
      error — a mistyped key never silently disables an adversary. The
      result is validated. Every diagnostic is anchored at the
      offending value (unknown fields at the offending key) and
      rendered by {!Obs.Pjson.format}, so [--faults FILE] errors read
      [file:line:col: message] like the scenario front-end's. *)

  val of_string : ?filename:string -> string -> (t, string) result
  (** [of_pjson] over {!Obs.Pjson.parse}; [filename] prefixes
      diagnostics. *)

  val to_json : t -> Obs.Json.t
  (** Rendered by {!to_string}, which round-trips through {!of_string}. *)

  val to_string : t -> string
  (** Compact JSON rendering of {!to_json}. *)

  val summary : t -> string
  (** Short human-readable digest for config printouts, e.g.
      ["loss=0.2,duty=3/10,churn=0.01/0.5"]. *)
end

type t
(** Runtime adversary state for one run: the plan plus its private
    random streams and the per-step masks. Mutable; owned by one engine
    instance. *)

val create : Plan.t -> population:int -> seed:int -> trial:int -> t
(** Instantiate a plan for a run. The loss stream is
    [Prng.split_stream ~seed ~trial ~subsystem:1], the churn stream
    subsystem 2 — disjoint from the engine master (subsystem 0) by
    construction.
    @raise Invalid_argument if the plan fails {!Plan.validate} or
    references an agent index [>= population]. *)

val plan : t -> Plan.t

val begin_step : t -> time:int -> unit
(** Advance the adversary to step [time]: recompute the outage state
    for this step and, for [time > 0], draw one churn Bernoulli per
    agent (departures and returns). Call exactly once per engine step,
    before movement and exchange; also call with [time = 0] before the
    initial exchange. Times must be presented in increasing order. *)

val blackout : t -> bool
(** Whether the current step is a global outage (duty cycle or a global
    window): no contact edge is live, so the engine skips pair
    collection entirely. *)

val active : t -> int -> bool
(** Whether agent [i] is present and its radio is up this step. *)

val edge_live : t -> int -> int -> bool
(** Whether the contact edge [(i, j)] carries messages this step: both
    endpoints {!active}, and the edge survives the loss draw. Draws one
    Bernoulli from the loss stream iff [loss_p > 0] and both endpoints
    are active, so call it exactly once per candidate edge in a
    deterministic order. *)

val present_mask : t -> bool array option
(** [Some mask] iff the plan has churn: [mask.(i)] is agent [i]'s
    presence. Live state (not a copy) — the engine threads it to
    [Space.move_all]/[rebuild_index] so absent agents freeze in place
    and leave the spatial index. [None] means everyone is always
    present. *)

val present_count : t -> int
(** Number of present agents (= population without churn). Together
    with the absent count this is conserved — the churn invariant the
    state-machine tests check. *)

val has_roles : t -> bool

val transmits : t -> bool array
(** [transmits.(i)] is false iff [i] is silent. Static; do not mutate. *)

val accepts : t -> bool array
(** [accepts.(i)] is false iff [i] is deaf. Static; do not mutate. *)
