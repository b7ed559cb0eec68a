(* The space layer: everything the generic engine needs to know about
   where agents live and how they move. See space.mli. *)

type mobility =
  | Mobile_all
  | Mobile_informed of bool array
  | Mobile_predators of {
      informed : bool array;
      predators : int;
    }

module Cover = struct
  type t = {
    bits : Bytes.t;
    mutable count : int;
  }

  let create ~cells =
    if cells < 0 then invalid_arg "Space.Cover.create: negative cells";
    { bits = Bytes.make ((cells + 7) / 8) '\000'; count = 0 }

  let count t = t.count

  let mark t cell =
    let byte = cell lsr 3 and mask = 1 lsl (cell land 7) in
    let b = Char.code (Bytes.get t.bits byte) in
    if b land mask = 0 then begin
      Bytes.set t.bits byte (Char.chr (b lor mask));
      t.count <- t.count + 1
    end
end

module type S = sig
  type t

  type pos

  val init_positions : t -> Prng.t -> n:int -> pos

  val move_all : ?present:bool array -> t -> pos -> Prng.t array -> mobility -> unit

  val rebuild_index : ?present:bool array -> t -> pos -> unit

  val iter_close_pairs : t -> f:(int -> int -> unit) -> unit

  val cliques : t -> bool

  val fold_group_sizes : t -> init:'a -> f:('a -> int -> 'a) -> 'a

  val cover_cells : t -> int

  val cover_target : t -> int

  val theory_n : t -> int

  val observe :
    t ->
    pos ->
    informed:bool array ->
    frontier:int ->
    cover:Cover.t option ->
    cover_any:bool ->
    int
end
