module Space = Mobile_network.Space
module Grid_space = Mobile_network.Grid_space

(* The plain grid's space under the lazy kernel, holding the index,
   with the floor plan's two differences: a move onto a blocked cell is
   undone, and with [los_blocking] a pair needs line of sight. *)
type t = {
  domain : Domain.t;
  los_blocking : bool;
  grid_space : Grid_space.t;
  mutable cur : Grid_space.pos;  (* positions of the last rebuild *)
}

type pos = Grid_space.pos

let create domain ~radius ~los_blocking =
  if Domain.free_count domain = 0 then
    invalid_arg "Domain_space.create: domain has no free node";
  let grid = Domain.grid domain in
  let none = Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout 0 in
  {
    domain;
    los_blocking;
    grid_space = Grid_space.create grid ~kernel:Walk.Lazy_one_fifth ~radius;
    cur = { Grid_space.side = Grid.side grid; xs = none; ys = none };
  }

let domain t = t.domain

let los_blocking t = t.los_blocking

let init_positions t rng ~n =
  let side = Grid.side (Domain.grid t.domain) in
  let xs = Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout n in
  let ys = Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout n in
  for i = 0 to n - 1 do
    let v = Domain.random_free_node t.domain rng in
    Bigarray.Array1.set xs i (Int32.of_int (v mod side));
    Bigarray.Array1.set ys i (Int32.of_int (v / side))
  done;
  { Grid_space.side; xs; ys }

(* [Domain.step_lazy] in place: the bounded lazy step draws [Prng.int
   rng 5] and stays put at the grid's edge; a move onto a blocked cell
   is undone. *)
let step t rng (pos : pos) i =
  let x = Bigarray.Array1.get pos.xs i and y = Bigarray.Array1.get pos.ys i in
  Walk.step_inplace (Domain.grid t.domain) Walk.Lazy_one_fifth rng ~xs:pos.xs
    ~ys:pos.ys i;
  if not (Domain.is_free t.domain (Grid_space.node_at pos i)) then begin
    Bigarray.Array1.set pos.xs i x;
    Bigarray.Array1.set pos.ys i y
  end

(* Churn mask: absent agents freeze in place and draw nothing. *)
let[@inline] is_present present i =
  match present with None -> true | Some pr -> pr.(i)

let move_all ?present t pos rngs mobility =
  let n = Grid_space.agents pos in
  match mobility with
  | Space.Mobile_all ->
      for i = 0 to n - 1 do
        if is_present present i then step t rngs.(i) pos i
      done
  | Space.Mobile_informed informed ->
      for i = 0 to n - 1 do
        if informed.(i) && is_present present i then step t rngs.(i) pos i
      done
  | Space.Mobile_predators { informed; predators } ->
      for i = 0 to n - 1 do
        if (i < predators || not informed.(i)) && is_present present i then
          step t rngs.(i) pos i
      done

let rebuild_index ?present t pos =
  t.cur <- pos;
  Grid_space.rebuild_index ?present t.grid_space pos

let iter_close_pairs t ~f =
  if t.los_blocking then
    Grid_space.iter_close_pairs t.grid_space ~f:(fun i j ->
        if
          Domain.line_of_sight t.domain
            (Grid_space.node_at t.cur i)
            (Grid_space.node_at t.cur j)
        then f i j)
  else Grid_space.iter_close_pairs t.grid_space ~f

(* a node always sees itself, so line of sight keeps every pair at
   radius 0 *)
let cliques t = Grid_space.cliques t.grid_space

let fold_group_sizes t ~init ~f =
  Grid_space.fold_group_sizes t.grid_space ~init ~f

let cover_cells t = Grid_space.cover_cells t.grid_space

let cover_target t = Domain.free_count t.domain

let theory_n t = Domain.free_count t.domain

let observe t pos ~informed ~frontier ~cover ~cover_any =
  Grid_space.observe t.grid_space pos ~informed ~frontier ~cover ~cover_any
