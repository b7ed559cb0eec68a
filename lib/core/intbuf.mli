(** Growable integer buffer: amortised O(1) pushes, O(n) conversion at
    the end. The engine reuses buffers across steps (see {!clear});
    experiments collect per-step trajectories in them. *)

type t

val create : ?initial_capacity:int -> unit -> t

val length : t -> int

val push : t -> int -> unit

val get : t -> int -> int
(** @raise Invalid_argument if the index is out of range. *)

val clear : t -> unit
(** Forget all pushed values, keeping the backing storage — so a buffer
    reused across simulation steps stops allocating once warm. *)

val to_array : t -> int array
(** Fresh array of the pushed values in push order. *)
