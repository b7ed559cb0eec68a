type t = {
  grid : Grid.t;
  blocked : Bytes.t;  (* one bit per node *)
  free_count : int;
  free_nodes : Grid.node array;
}

type rect = { x : int; y : int; w : int; h : int }

let blocked_bit bytes node =
  Char.code (Bytes.get bytes (node lsr 3)) land (1 lsl (node land 7)) <> 0

let of_blocked grid ~blocked =
  if Grid.is_torus grid then
    invalid_arg "Domain.of_blocked: barrier domains require a bounded grid";
  let n = Grid.nodes grid in
  let bytes = Bytes.make ((n + 7) / 8) '\000' in
  let free = ref [] in
  let free_count = ref 0 in
  for node = n - 1 downto 0 do
    if blocked node then begin
      let byte = node lsr 3 and mask = 1 lsl (node land 7) in
      Bytes.set bytes byte (Char.chr (Char.code (Bytes.get bytes byte) lor mask))
    end
    else begin
      free := node :: !free;
      incr free_count
    end
  done;
  {
    grid;
    blocked = bytes;
    free_count = !free_count;
    free_nodes = Array.of_list !free;
  }

let unobstructed grid = of_blocked grid ~blocked:(fun _ -> false)

let with_rectangles grid ~rects =
  let inside node =
    let x = Grid.x_of grid node and y = Grid.y_of grid node in
    List.exists
      (fun r -> x >= r.x && x < r.x + r.w && y >= r.y && y < r.y + r.h)
      rects
  in
  of_blocked grid ~blocked:inside

let central_wall grid ~gap =
  if gap < 1 then invalid_arg "Domain.central_wall: gap must be positive";
  let side = Grid.side grid in
  let wall_x = side / 2 in
  let gap_lo = (side - gap) / 2 in
  let gap_hi = gap_lo + gap - 1 in
  of_blocked grid ~blocked:(fun node ->
      Grid.x_of grid node = wall_x
      && not (Grid.y_of grid node >= gap_lo && Grid.y_of grid node <= gap_hi))

let rooms grid ~rooms_per_side ~door =
  if rooms_per_side < 1 then
    invalid_arg "Domain.rooms: rooms_per_side must be positive";
  if door < 1 then invalid_arg "Domain.rooms: door must be positive";
  let side = Grid.side grid in
  (* interior wall coordinates: rooms_per_side - 1 walls per axis *)
  let wall_coords =
    List.init (rooms_per_side - 1) (fun i -> (i + 1) * side / rooms_per_side)
  in
  let is_wall c = List.mem c wall_coords in
  (* a door is a centred opening within each room-length span of a wall *)
  let in_door c =
    (* position within the room span that the coordinate c crosses *)
    let room = c * rooms_per_side / side in
    let lo = room * side / rooms_per_side in
    let hi = (room + 1) * side / rooms_per_side - 1 in
    let mid_lo = lo + (((hi - lo + 1) - door) / 2) in
    c >= mid_lo && c < mid_lo + door
  in
  of_blocked grid ~blocked:(fun node ->
      let x = Grid.x_of grid node and y = Grid.y_of grid node in
      (is_wall x && not (in_door y)) || (is_wall y && not (in_door x)))

let grid t = t.grid

let is_free t node = not (blocked_bit t.blocked node)

let free_count t = t.free_count

let is_connected t =
  if t.free_count = 0 then true
  else begin
    let seen = Bytes.make ((Grid.nodes t.grid + 7) / 8) '\000' in
    let mark node =
      let byte = node lsr 3 and mask = 1 lsl (node land 7) in
      Bytes.set seen byte (Char.chr (Char.code (Bytes.get seen byte) lor mask))
    in
    let marked node = blocked_bit seen node in
    let queue = Queue.create () in
    let start = t.free_nodes.(0) in
    mark start;
    Queue.add start queue;
    let visited = ref 1 in
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      Grid.fold_neighbours t.grid v ~init:() ~f:(fun () u ->
          if is_free t u && not (marked u) then begin
            mark u;
            incr visited;
            Queue.add u queue
          end)
    done;
    !visited = t.free_count
  end

let random_free_node t rng =
  if t.free_count = 0 then invalid_arg "Domain.random_free_node: no free node";
  Prng.choose rng t.free_nodes

let fold_free_neighbours t v ~init ~f =
  Grid.fold_neighbours t.grid v ~init ~f:(fun acc u ->
      if is_free t u then f acc u else acc)

let line_of_sight t a b =
  if not (is_free t a && is_free t b) then false
  else if a = b then true
  else begin
    (* conservative supercover: sample the segment at sub-cell
       resolution and require every touched cell to be free *)
    let side = Grid.side t.grid in
    let ax = float_of_int (Grid.x_of t.grid a)
    and ay = float_of_int (Grid.y_of t.grid a)
    and bx = float_of_int (Grid.x_of t.grid b)
    and by = float_of_int (Grid.y_of t.grid b) in
    let steps = 2 * Grid.chebyshev t.grid a b in
    let clear = ref true in
    for i = 0 to steps do
      if !clear then begin
        let f = float_of_int i /. float_of_int steps in
        let x = int_of_float (Float.round (ax +. (f *. (bx -. ax))))
        and y = int_of_float (Float.round (ay +. (f *. (by -. ay)))) in
        let node = (y * side) + x in
        if not (is_free t node) then clear := false
      end
    done;
    !clear
  end

let step_lazy t rng v =
  (* direction 0-3 w.p. 1/5 each (clamped to holding when blocked or
     off-grid), stay on 4: every free neighbour is reached w.p. 1/5 *)
  let side = Grid.side t.grid in
  let d = Prng.int rng 5 in
  if d = 4 then v
  else begin
    let x = Grid.x_of t.grid v and y = Grid.y_of t.grid v in
    let candidate =
      match d with
      | 0 -> if x > 0 then v - 1 else v
      | 1 -> if x < side - 1 then v + 1 else v
      | 2 -> if y > 0 then v - side else v
      | _ -> if y < side - 1 then v + side else v
    in
    if is_free t candidate then candidate else v
  end
