(** Catalogue of all reproduction experiments, keyed by the ids used in
    DESIGN.md and EXPERIMENTS.md. The CLI (and through it the benchmark)
    and the integration tests all dispatch through this table, so adding
    an experiment here makes it runnable everywhere. *)

type entry = {
  id : string;  (** canonical id, e.g. ["E1"] *)
  summary : string;
  run : ?quick:bool -> seed:int -> unit -> Exp_result.t;
}

val all : entry list
(** Every experiment, in DESIGN.md order
    (E1..E16, A1..A3, X1..X5, L1..L5). *)

val find : string -> entry option
(** Case-insensitive lookup by id. *)

val ids : unit -> string list
(** All ids, in [all] order. Duplicate-free (enforced by test). *)

val run_entries :
  ?pool:Runtime.Pool.t ->
  ?quick:bool ->
  seed:int ->
  on_result:(Exp_result.t -> unit) ->
  entry list ->
  Exp_result.t list
(** Run the given experiments over [pool] (default: the ambient pool),
    returning results in list order. [on_result] fires on the calling
    domain, in list order, as soon as each ordered prefix completes —
    front ends hang rendering and CSV export off it. With a pool of one
    job this is exactly the sequential run-render loop of old. *)
