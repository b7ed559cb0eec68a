module Space = Mobile_network.Space

type pos = {
  xs : float array;
  ys : float array;
}

(* Close pairs go through [Spatial]'s bucket table: each rebuild loads
   every agent's cell (side [cell >= radius]) as integer coordinates on
   a bounded grid of [per_row] cells a side at radius 1, so a bucket is
   a cell and every close pair lies in one cell or two adjacent ones;
   the table's float scan then tests the points themselves. *)
type t = {
  box_side : float;
  radius : float;
  sigma : float;
  per_row : int;
  cell : float;  (* box_side / per_row; >= radius whenever radius > 0 *)
  spatial : Spatial.t;
  (* each agent's cell, grown to the population on first use *)
  mutable cx : Spatial.vec;
  mutable cy : Spatial.vec;
  mutable cur : pos;  (* positions of the last rebuild *)
}

let isqrt v =
  let r = int_of_float (sqrt (float_of_int (max 0 v))) in
  if (r + 1) * (r + 1) <= v then r + 1 else r

let create ~box_side ~radius ~sigma ~agents =
  (* written so that NaN fails every check *)
  if not (box_side > 0. && Float.is_finite box_side) then
    invalid_arg "Continuum_space.create: box_side must be positive and finite";
  if not (radius >= 0.) then
    invalid_arg "Continuum_space.create: radius must be >= 0";
  if not (sigma > 0. && Float.is_finite sigma) then
    invalid_arg "Continuum_space.create: sigma must be positive and finite";
  if agents <= 0 then invalid_arg "Continuum_space.create: agents <= 0";
  (* More than ~2 sqrt(k) buckets per row buys nothing (expected
     occupancy is already < 1), so cap there: the cell side only grows,
     which keeps the adjacent-cell scan correct while bounding memory
     for tiny radii. *)
  let per_row =
    if radius > 0. then
      let fit = int_of_float (Float.floor (box_side /. radius)) in
      max 1 (min fit ((2 * isqrt agents) + 3))
    else 1
  in
  let cells () =
    Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout agents
  in
  {
    box_side;
    radius;
    sigma;
    per_row;
    cell = box_side /. float_of_int per_row;
    spatial = Spatial.create (Grid.create ~side:per_row ()) ~radius:1;
    cx = cells ();
    cy = cells ();
    cur = { xs = [||]; ys = [||] };
  }

let box_side t = t.box_side

let radius t = t.radius

let sigma t = t.sigma

(* Reflect a coordinate into [0, l]. A move within [[-l, 2l]] folds
   back at most twice, with the arithmetic it always had; one further
   out is first reduced, exactly, into [[0, 2l)] by the reflection's
   period (it is even in x), so a move costs O(1) for any sigma. *)
let rec fold_into l x =
  if x < 0. then fold_into l (-.x)
  else if x > l then fold_into l ((2. *. l) -. x)
  else x

let reflect l x =
  if x < -.l || x > 2. *. l then fold_into l (Float.rem (Float.abs x) (2. *. l))
  else fold_into l x

let init_positions t rng ~n =
  let xs = Array.init n (fun _ -> Prng.float rng t.box_side) in
  let ys = Array.init n (fun _ -> Prng.float rng t.box_side) in
  { xs; ys }

let move_one t p rngs i =
  p.xs.(i) <-
    reflect t.box_side
      (p.xs.(i) +. Prng.gaussian rngs.(i) ~mean:0. ~stddev:t.sigma);
  p.ys.(i) <-
    reflect t.box_side
      (p.ys.(i) +. Prng.gaussian rngs.(i) ~mean:0. ~stddev:t.sigma)

(* Churn mask: absent agents freeze in place and draw nothing. *)
let[@inline] is_present present i =
  match present with None -> true | Some pr -> pr.(i)

let move_all ?present t p rngs mobility =
  let n = Array.length p.xs in
  match mobility with
  | Space.Mobile_all ->
      for i = 0 to n - 1 do
        if is_present present i then move_one t p rngs i
      done
  | Space.Mobile_informed informed ->
      for i = 0 to n - 1 do
        if informed.(i) && is_present present i then move_one t p rngs i
      done
  | Space.Mobile_predators { informed; predators } ->
      for i = 0 to n - 1 do
        if (i < predators || not informed.(i)) && is_present present i then
          move_one t p rngs i
      done

let[@inline] bucket_coord t c =
  let b = int_of_float (c /. t.cell) in
  if b >= t.per_row then t.per_row - 1 else if b < 0 then 0 else b

let rebuild_index ?present t p =
  if t.radius > 0. then begin
    let n = Array.length p.xs in
    if Bigarray.Array1.dim t.cx < n then begin
      t.cx <- Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout n;
      t.cy <- Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout n
    end;
    for i = 0 to n - 1 do
      Bigarray.Array1.set t.cx i (Int32.of_int (bucket_coord t p.xs.(i)));
      Bigarray.Array1.set t.cy i (Int32.of_int (bucket_coord t p.ys.(i)))
    done;
    ignore
      (Spatial.rebuild_soa ?present t.spatial ~xs:t.cx ~ys:t.cy ~n
        : Spatial.update);
    t.cur <- p
  end

let iter_close_pairs t ~f =
  if t.radius > 0. then
    Spatial.iter_close_points t.spatial ~xs:t.cur.xs ~ys:t.cur.ys
      ~radius:t.radius ~f

(* a zero radius yields no pairs at all, even for coinciding agents *)
let cliques _ = false

let fold_group_sizes _ ~init:_ ~f:_ =
  invalid_arg "Continuum_space.fold_group_sizes: the box has no cliques"

let cover_cells _ = 0

let cover_target _ = 0

(* the box's area, the analogue of the grid's side^2 node count *)
let theory_n t = int_of_float (Float.round (t.box_side *. t.box_side))

let observe _t p ~informed ~frontier ~cover:_ ~cover_any:_ =
  (* the informed frontier generalises to the continuum as the largest
     informed x-coordinate, floored to keep the frontier series column integral *)
  let frontier = ref frontier in
  for i = 0 to Array.length p.xs - 1 do
    if informed.(i) then begin
      let x = int_of_float p.xs.(i) in
      if x > !frontier then frontier := x
    end
  done;
  !frontier
