(** The information-dissemination processes studied by the paper.

    All flooding protocols share the paper's exchange rule (§2): within
    one time step, a rumor spreads through an entire connected component
    of the visibility graph [G_t(r)] (radio transmission is much faster
    than motion). They differ in who starts informed, who moves, and when
    the process is considered finished.

    [Predator_prey] is the §4 by-product and is {e not} a flooding
    process: a prey is caught only by direct contact with a predator —
    "infection" does not chain through other preys. *)

type t =
  | Broadcast
      (** One uniformly random source agent holds the rumor at time 0;
          finished when every agent is informed — the broadcast time
          [T_B] of Definition 1. *)
  | Gossip
      (** Every agent starts with its own distinct rumor; finished when
          every agent knows every rumor — the gossip time [T_G]. *)
  | Frog
      (** Broadcast dynamics, but uninformed agents stand still until
          informed (the Frog Model, §1.1/§4). *)
  | Broadcast_cover
      (** Broadcast dynamics; finished when every grid node has been
          visited by an informed agent — the coverage time [T_C] of
          §4. Implies all agents informed before completion on a
          connected run, but termination is on coverage. *)
  | Cover_walks
      (** No rumor at all: finished when every grid node has been
          visited by at least one of the [k] walks — the multi-walk
          cover time of §4 ([2, 12]). *)
  | Predator_prey of { preys : int }
      (** The configured [k] agents are predators; [preys] additional
          prey agents walk independently and are caught on contact
          (distance [<= r] from a predator). Finished at prey
          extinction. @see §4. *)

val to_string : t -> string

val equal : t -> t -> bool [@@seam "test_config"]

val is_flooding : t -> bool [@@seam "test_config"]
(** Whether rumor exchange uses component-wide flooding (everything but
    [Predator_prey]). *)

val population : t -> k:int -> int
(** Total number of walking individuals: [k] for every protocol except
    [Predator_prey], which adds its preys. *)
