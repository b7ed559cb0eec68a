type kernel =
  | Lazy_one_fifth
  | Simple
  | Lazy_half
  | Jump of int

let kernel_to_string = function
  | Lazy_one_fifth -> "lazy-1/5"
  | Simple -> "simple"
  | Lazy_half -> "lazy-1/2"
  | Jump rho -> Printf.sprintf "jump:%d" rho

(* --- Kernels on coordinates ------------------------------------------------

   A walker steps on its coordinates, packed into one immediate ([xy]: x
   in the low 32 bits, y above; a side is below 2^31 since side * side is
   a node index), so a step takes no division; a node index
   (y * side + x) is formed only where one is returned or tested. Each
   kernel has one body: [direction] draws the move of the neighbour
   kernels, [shift] applies it to one coordinate, and
   [jump_torus]/[jump_bounded] draw the jump kernel. Only the engine's
   lazy-kernel paths ([step_inplace], [move_all]) specialise the draw.
   Loops (rejection sampling, the walks) are module-level recursive
   functions: local closures or refs would allocate without flambda. *)

let low = 0xFFFF_FFFF
let[@inline always] xy x y = (y lsl 32) lor x
let[@inline always] node_of_xy side p = ((p lsr 32) * side) + (p land low)
let xy_of_node side v = xy (v mod side) (v / side)

(* The move of a neighbour kernel from (x, y): 0-3 = W/E/S/N, 4 = stay.
   Lazy_one_fifth draws one of five outcomes, so a move off a bounded
   grid's edge becomes holding probability. Simple draws uniformly over
   the existing neighbours (all four on the torus) and draws nothing on
   the 1-node grid. Lazy_half flips a coin to stay first. Jump is drawn
   by [jump_torus]/[jump_bounded] and never reaches here. *)
let[@inline always] direction kernel rng torus side x y =
  match kernel with
  | Lazy_one_fifth -> Prng.int rng 5
  | Jump _ -> 4
  | Lazy_half when Prng.bool rng -> 4
  | Simple | Lazy_half ->
      if torus then Prng.int rng 4
      else
        let w = x > 0 and e = x < side - 1 and s = y > 0 and n = y < side - 1 in
        let deg =
          (if w then 1 else 0) + (if e then 1 else 0) + (if s then 1 else 0)
          + if n then 1 else 0
        in
        if deg = 0 then 4
        else
          (* the pick-th existing direction, in W/E/S/N order *)
          let pick = Prng.int rng deg in
          if w && pick = 0 then 0
          else
            let pick = if w then pick - 1 else pick in
            if e && pick = 0 then 1
            else
              let pick = if e then pick - 1 else pick in
              if s && pick = 0 then 2 else 3

(* One coordinate moved by [delta] in {-1, 0, 1}: off the edge it wraps
   on the torus and stays put on the bounded grid. Coordinates are in
   [0, side), so wrapping is a compare, not a [mod]. *)
let[@inline always] shift torus side c delta =
  let c' = c + delta in
  if c' < 0 then if torus then side - 1 else c
  else if c' = side then if torus then 0 else c
  else c'

(* Uniform over the Manhattan ball of radius rho around (x, y), intersected
   with the grid, by rejection from the bounding square (acceptance >= 1/2
   in the interior, ~1/8 at corners). On a torus only the Manhattan
   rejection applies; coordinates wrap. *)
let rec jump_torus rng rho x y side =
  let dx = Prng.int_incl rng (-rho) rho in
  let dy = Prng.int_incl rng (-rho) rho in
  if abs dx + abs dy > rho then jump_torus rng rho x y side
  else
    xy ((((x + dx) mod side) + side) mod side)
      ((((y + dy) mod side) + side) mod side)

let rec jump_bounded rng rho x y side =
  let dx = Prng.int_incl rng (-rho) rho in
  let dy = Prng.int_incl rng (-rho) rho in
  if abs dx + abs dy > rho then jump_bounded rng rho x y side
  else
    let nx = x + dx and ny = y + dy in
    if nx < 0 || nx >= side || ny < 0 || ny >= side then
      jump_bounded rng rho x y side
    else xy nx ny

let[@inline always] step_xy kernel rng torus side p =
  match kernel with
  | Jump 0 -> p
  | Jump rho ->
      if torus then jump_torus rng rho (p land low) (p lsr 32) side
      else jump_bounded rng rho (p land low) (p lsr 32) side
  | Lazy_one_fifth | Simple | Lazy_half ->
      let x = p land low and y = p lsr 32 in
      let d = direction kernel rng torus side x y in
      xy
        (shift torus side x ((if d = 1 then 1 else 0) - if d = 0 then 1 else 0))
        (shift torus side y ((if d = 3 then 1 else 0) - if d = 2 then 1 else 0))

let step grid kernel rng v =
  let side = Grid.side grid in
  node_of_xy side
    (step_xy kernel rng (Grid.is_torus grid) side (xy_of_node side v))

(* --- In-place structure-of-arrays kernels ---------------------------------

   [step_inplace] is the engine's hot path: positions live in int32
   coordinate vectors and one step mutates an agent's two entries with
   zero allocation, drawing exactly what [step] draws. *)
type vec = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let[@unsafe_invariant
     "i is an agent index < Array1.dim v; every caller iterates or is \
      handed indices in [0, n)"] vget (v : vec) i =
  Int32.to_int (Bigarray.Array1.unsafe_get v i)

let[@unsafe_invariant
     "i is an agent index < Array1.dim v; every caller iterates or is \
      handed indices in [0, n)"] vset (v : vec) i x =
  Bigarray.Array1.unsafe_set v i (Int32.of_int x)

let[@inline always] step_agent kernel rng torus side xs ys i =
  let p = step_xy kernel rng torus side (xy (vget xs i) (vget ys i)) in
  vset xs i (p land low);
  vset ys i (p lsr 32)

let[@hot] step_inplace grid kernel rng ~xs ~ys i =
  match kernel with
  | Lazy_one_fifth ->
      let d = Prng.int rng 5 in
      if d <> 4 then begin
        let side = Grid.side grid in
        let x = vget xs i and y = vget ys i in
        if Grid.is_torus grid then begin
          match d with
          | 0 -> vset xs i (if x = 0 then side - 1 else x - 1)
          | 1 -> vset xs i (if x = side - 1 then 0 else x + 1)
          | 2 -> vset ys i (if y = 0 then side - 1 else y - 1)
          | _ -> vset ys i (if y = side - 1 then 0 else y + 1)
        end
        else begin
          match d with
          | 0 -> if x > 0 then vset xs i (x - 1)
          | 1 -> if x < side - 1 then vset xs i (x + 1)
          | 2 -> if y > 0 then vset ys i (y - 1)
          | _ -> if y < side - 1 then vset ys i (y + 1)
        end
      end
  | Simple | Lazy_half | Jump _ ->
      step_agent kernel rng (Grid.is_torus grid) (Grid.side grid) xs ys i

(* Bulk stepping for the unmasked whole-population case. Per agent this
   saves the [step_inplace] call and the grid accessor calls — the loop
   hoists side/topology once and draws exactly the same values in the
   same agent order, so streams are unchanged. The lazy kernel is the
   paper's default and the only one specialised. *)
let[@hot]
    [@unsafe_invariant
      "loops run i over [0, n) and callers pass n <= Array.length rngs \
       = Array1.dim xs = Array1.dim ys"] move_all grid kernel
    (rngs : Prng.t array) ~(xs : vec) ~(ys : vec) ~n =
  match kernel with
  | Lazy_one_fifth ->
      (* The direction is random, so branching on it mispredicts ~half
         the time; flag arithmetic (dx, dy in {-1,0,1}) keeps the loop
         free of data-dependent branches — the wrap/clamp tests below
         are taken with probability 1/side and predict cleanly. Both
         coordinates are stored unconditionally; d = 4 stores them back
         unchanged. *)
      let side = Grid.side grid in
      if Grid.is_torus grid then
        for i = 0 to n - 1 do
          let d = Prng.int (Array.unsafe_get rngs i) 5 in
          let dx = (if d = 1 then 1 else 0) - (if d = 0 then 1 else 0) in
          let dy = (if d = 3 then 1 else 0) - (if d = 2 then 1 else 0) in
          let x = vget xs i + dx in
          let y = vget ys i + dy in
          let x = if x < 0 then side - 1 else if x >= side then 0 else x in
          let y = if y < 0 then side - 1 else if y >= side then 0 else y in
          vset xs i x;
          vset ys i y
        done
      else
        for i = 0 to n - 1 do
          let d = Prng.int (Array.unsafe_get rngs i) 5 in
          let dx = (if d = 1 then 1 else 0) - (if d = 0 then 1 else 0) in
          let dy = (if d = 3 then 1 else 0) - (if d = 2 then 1 else 0) in
          let x0 = vget xs i and y0 = vget ys i in
          let x = x0 + dx and y = y0 + dy in
          (* bounded grid: a move off the edge clamps to staying put *)
          let x = if x < 0 || x >= side then x0 else x in
          let y = if y < 0 || y >= side then y0 else y in
          vset xs i x;
          vset ys i y
        done
  | Simple | Lazy_half | Jump _ ->
      let side = Grid.side grid and torus = Grid.is_torus grid in
      for i = 0 to n - 1 do
        step_agent kernel (Array.unsafe_get rngs i) torus side xs ys i
      done

(* --- Scalar walks: each entry point splits its start into [xy] once and
   hands the walk to a [@hot] loop whose arguments stay in registers. --- *)

let[@hot] rec advance_xy kernel rng torus side p steps =
  if steps = 0 then p
  else
    advance_xy kernel rng torus side (step_xy kernel rng torus side p)
      (steps - 1)

let advance grid kernel rng v ~steps =
  if steps < 0 then invalid_arg "Walk.advance: negative steps";
  let side = Grid.side grid in
  node_of_xy side
    (advance_xy kernel rng (Grid.is_torus grid) side (xy_of_node side v) steps)

let[@hot] rec fill_path kernel rng torus side (out : Grid.node array) p i =
  if i < Array.length out then begin
    let p = step_xy kernel rng torus side p in
    out.(i) <- node_of_xy side p;
    fill_path kernel rng torus side out p (i + 1)
  end

let path grid kernel rng v ~steps =
  if steps < 0 then invalid_arg "Walk.path: negative steps";
  let side = Grid.side grid in
  let out = Array.make (steps + 1) v in
  fill_path kernel rng (Grid.is_torus grid) side out (xy_of_node side v) 1;
  out

type excursion = {
  final : Grid.node;
  range : int;
  max_displacement : int;
}

(* The visited set: open addressing over node + 1 (0 marks an empty
   slot) in a power of two at least twice the nodes an excursion can
   reach. The hash multiplies by an odd constant and keeps high bits, as
   the nodes one walk visits share most of their low bits. *)
let rec insert (seen : int array) key i =
  let s = seen.(i) in
  if s = 0 then seen.(i) <- key
  else if s <> key then insert seen key ((i + 1) land (Array.length seen - 1))

let mark seen v =
  insert seen (v + 1)
    (((v * 0x1E37_79B9_7F4A_7C15) lsr 31) land (Array.length seen - 1))

let[@hot] rec visit kernel rng torus side seen p steps =
  if steps = 0 then p
  else begin
    let p = step_xy kernel rng torus side p in
    mark seen (node_of_xy side p);
    visit kernel rng torus side seen p (steps - 1)
  end

let excursion_stats grid kernel rng start ~steps =
  if steps < 0 then invalid_arg "Walk.excursion_stats: negative steps";
  let side = Grid.side grid in
  let reach = min (steps + 1) (Grid.nodes grid) in
  let rec slots n = if n >= 2 * reach then n else slots (2 * n) in
  let seen = Array.make (slots 1) 0 in
  mark seen start;
  let torus = Grid.is_torus grid in
  let final = visit kernel rng torus side seen (xy_of_node side start) steps in
  (* every position the walk took is in [seen] *)
  let count n key = if key > 0 then n + 1 else n in
  let farther m key =
    if key > 0 then max m (Grid.manhattan grid start (key - 1)) else m
  in
  { final = node_of_xy side final; range = Array.fold_left count 0 seen;
    max_displacement = Array.fold_left farther 0 seen }

let[@hot] rec hits kernel rng torus side target p steps =
  steps > 0
  &&
  let p = step_xy kernel rng torus side p in
  node_of_xy side p = target || hits kernel rng torus side target p (steps - 1)

let hits_within grid kernel rng ~start ~target ~steps =
  if steps < 0 then invalid_arg "Walk.hits_within: negative steps";
  let side = Grid.side grid in
  start = target
  || hits kernel rng (Grid.is_torus grid) side target (xy_of_node side start)
       steps

(* Steps left when the walkers first share a node in [where], or -1;
   both move in the same synchronous round, a before b. *)
let[@hot] rec meet kernel rng torus side where pa pb steps =
  if pa = pb && where (node_of_xy side pa) then steps
  else if steps = 0 then -1
  else
    let pa = step_xy kernel rng torus side pa in
    let pb = step_xy kernel rng torus side pb in
    meet kernel rng torus side where pa pb (steps - 1)

let first_meeting grid kernel rng ~a ~b ~steps ?(where = fun _ -> true) () =
  if steps < 0 then invalid_arg "Walk.first_meeting: negative steps";
  let side = Grid.side grid in
  match
    meet kernel rng (Grid.is_torus grid) side where (xy_of_node side a)
      (xy_of_node side b) steps
  with
  | -1 -> None
  | left -> Some (steps - left)

let meeting_disk grid ~a ~b =
  let d = Grid.manhattan grid a b in
  fun v -> Grid.manhattan grid a v <= d && Grid.manhattan grid b v <= d
