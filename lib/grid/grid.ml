type topology =
  | Bounded
  | Torus

type t = { side : int; topology : topology }

type node = int

let create ?(topology = Bounded) ~side () =
  if side <= 0 then invalid_arg "Grid.create: side must be positive";
  (match topology with
  | Torus when side < 3 ->
      invalid_arg "Grid.create: torus needs side >= 3 (no multi-edges)"
  | Torus | Bounded -> ());
  { side; topology }

let side t = t.side

let is_torus t = t.topology = Torus

let nodes t = t.side * t.side

let index t ~x ~y =
  if x < 0 || x >= t.side || y < 0 || y >= t.side then
    invalid_arg "Grid.index: coordinates out of bounds";
  (y * t.side) + x

let x_of t v = v mod t.side

let y_of t v = v / t.side

let center t = index t ~x:(t.side / 2) ~y:(t.side / 2)

(* per-axis distance, wrap-aware on the torus *)
let axis_delta t a b =
  let d = abs (a - b) in
  match t.topology with
  | Bounded -> d
  | Torus -> min d (t.side - d)

let manhattan t u v =
  axis_delta t (x_of t u) (x_of t v) + axis_delta t (y_of t u) (y_of t v)

let chebyshev t u v =
  max (axis_delta t (x_of t u) (x_of t v)) (axis_delta t (y_of t u) (y_of t v))

let distance_to_border t v =
  match t.topology with
  | Torus -> max_int
  | Bounded ->
      let x = x_of t v and y = y_of t v in
      min (min x (t.side - 1 - x)) (min y (t.side - 1 - y))

let degree t v =
  match t.topology with
  | Torus -> 4
  | Bounded ->
      let x = x_of t v and y = y_of t v in
      let d = ref 0 in
      if x > 0 then incr d;
      if x < t.side - 1 then incr d;
      if y > 0 then incr d;
      if y < t.side - 1 then incr d;
      !d

let fold_neighbours t v ~init ~f =
  let x = x_of t v and y = y_of t v in
  match t.topology with
  | Bounded ->
      let acc = if x > 0 then f init (v - 1) else init in
      let acc = if x < t.side - 1 then f acc (v + 1) else acc in
      let acc = if y > 0 then f acc (v - t.side) else acc in
      if y < t.side - 1 then f acc (v + t.side) else acc
  | Torus ->
      let s = t.side in
      let west = (y * s) + ((x + s - 1) mod s) in
      let east = (y * s) + ((x + 1) mod s) in
      let south = (((y + s - 1) mod s) * s) + x in
      let north = (((y + 1) mod s) * s) + x in
      f (f (f (f init west) east) south) north

let neighbours t v =
  List.rev (fold_neighbours t v ~init:[] ~f:(fun acc u -> u :: acc))

let random_node t rng = Prng.int rng (nodes t)

let ball_size_unbounded d =
  if d < 0 then invalid_arg "Grid.ball_size_unbounded: negative radius";
  (2 * d * d) + (2 * d) + 1

let fold_ball t v d ~init ~f =
  if d < 0 then invalid_arg "Grid.fold_ball: negative radius";
  (match t.topology with
  | Torus when (2 * d) + 1 > t.side ->
      invalid_arg "Grid.fold_ball: torus ball wraps onto itself (2d+1 > side)"
  | Torus | Bounded -> ());
  let cx = x_of t v and cy = y_of t v in
  let acc = ref init in
  (match t.topology with
  | Bounded ->
      let y_lo = max 0 (cy - d) and y_hi = min (t.side - 1) (cy + d) in
      for y = y_lo to y_hi do
        let slack = d - abs (y - cy) in
        let x_lo = max 0 (cx - slack) and x_hi = min (t.side - 1) (cx + slack) in
        for x = x_lo to x_hi do
          acc := f !acc ((y * t.side) + x)
        done
      done
  | Torus ->
      let s = t.side in
      for dy = -d to d do
        let slack = d - abs dy in
        let y = (cy + dy + s) mod s in
        for dx = -slack to slack do
          let x = (cx + dx + s) mod s in
          acc := f !acc ((y * s) + x)
        done
      done);
  !acc

let ball_size t v d =
  if d < 0 then invalid_arg "Grid.ball_size: negative radius";
  match t.topology with
  | Torus ->
      (* same count everywhere by symmetry; direct O(n) count handles
         balls that wrap around (ball_size is not on any hot path) *)
      let count = ref 0 in
      for u = 0 to nodes t - 1 do
        if manhattan t v u <= d then incr count
      done;
      !count
  | Bounded ->
      let cx = x_of t v and cy = y_of t v in
      let count = ref 0 in
      let y_lo = max 0 (cy - d) and y_hi = min (t.side - 1) (cy + d) in
      for y = y_lo to y_hi do
        let slack = d - abs (y - cy) in
        let x_lo = max 0 (cx - slack) and x_hi = min (t.side - 1) (cx + slack) in
        if x_hi >= x_lo then count := !count + (x_hi - x_lo + 1)
      done;
      !count

module Tessellation = struct
  type cell = int

  type tess = { grid : t; cell_side : int; per_row : int }

  let create grid ~cell_side =
    if cell_side <= 0 then
      invalid_arg "Grid.Tessellation.create: cell_side must be positive";
    let per_row = (grid.side + cell_side - 1) / cell_side in
    { grid; cell_side; per_row }

  let cells_per_row tess = tess.per_row

  let cell_count tess = tess.per_row * tess.per_row

  let cell_of_node tess v =
    let x = x_of tess.grid v and y = y_of tess.grid v in
    ((y / tess.cell_side) * tess.per_row) + (x / tess.cell_side)
end
