module Space = Mobile_network.Space

type pos = {
  xs : float array;
  ys : float array;
}

(* Bucket-grid over float positions with cell side >= radius: close
   pairs lie in the same or 8-adjacent cells, so a forward scan
   (E, N, NE, NW) of each occupied cell visits every pair once. Unlike
   the pre-refactor per-step Hashtbl, the counting-sort arrays below are
   allocated once and reused across rebuilds; only buckets touched by
   the last rebuild are reset. *)
type t = {
  box_side : float;
  radius : float;
  sigma : float;
  per_row : int;
  cell : float;  (* box_side / per_row; >= radius whenever radius > 0 *)
  count : int array;  (* per-bucket occupancy (0 for untouched buckets) *)
  fill : int array;  (* per-bucket placement cursor *)
  start : int array;  (* per-bucket offset into [items] *)
  mutable items : int array;  (* agent ids grouped by bucket *)
  mutable bucket_of : int array;  (* per-agent bucket id *)
  touched : int array;  (* buckets occupied by the last rebuild *)
  mutable touched_len : int;
  mutable n : int;  (* agents in the last rebuild *)
  mutable cur : pos;  (* positions of the last rebuild *)
}

let isqrt v =
  let r = int_of_float (sqrt (float_of_int (max 0 v))) in
  if (r + 1) * (r + 1) <= v then r + 1 else r

let create ~box_side ~radius ~sigma ~agents =
  if not (box_side > 0.) then
    invalid_arg "Continuum_space.create: box_side <= 0";
  if radius < 0. then invalid_arg "Continuum_space.create: negative radius";
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
  let buckets = per_row * per_row in
  {
    box_side;
    radius;
    sigma;
    per_row;
    cell = box_side /. float_of_int per_row;
    count = Array.make buckets 0;
    fill = Array.make buckets 0;
    start = Array.make buckets 0;
    items = Array.make agents 0;
    bucket_of = Array.make agents 0;
    touched = Array.make (max 1 buckets) 0;
    touched_len = 0;
    n = 0;
    cur = { xs = [||]; ys = [||] };
  }

let box_side t = t.box_side

let radius t = t.radius

let sigma t = t.sigma

(* Reflect a coordinate into [0, l] (folding handles overshoots of any
   size, though sigma << l in practice). *)
let rec reflect l x =
  if x < 0. then reflect l (-.x)
  else if x > l then reflect l ((2. *. l) -. x)
  else x

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

let ensure_capacity t n =
  if Array.length t.items < n then begin
    t.items <- Array.make n 0;
    t.bucket_of <- Array.make n 0
  end

let rebuild_index ?present t p =
  if t.radius > 0. then begin
    let n = Array.length p.xs in
    ensure_capacity t n;
    for u = 0 to t.touched_len - 1 do
      let b = t.touched.(u) in
      t.count.(b) <- 0;
      t.fill.(b) <- 0
    done;
    t.touched_len <- 0;
    for i = 0 to n - 1 do
      if is_present present i then begin
        let b =
          (bucket_coord t p.ys.(i) * t.per_row) + bucket_coord t p.xs.(i)
        in
        t.bucket_of.(i) <- b;
        if t.count.(b) = 0 then begin
          t.touched.(t.touched_len) <- b;
          t.touched_len <- t.touched_len + 1
        end;
        t.count.(b) <- t.count.(b) + 1
      end
    done;
    let off = ref 0 in
    for u = 0 to t.touched_len - 1 do
      let b = t.touched.(u) in
      t.start.(b) <- !off;
      off := !off + t.count.(b)
    done;
    for i = 0 to n - 1 do
      if is_present present i then begin
        let b = t.bucket_of.(i) in
        t.items.(t.start.(b) + t.fill.(b)) <- i;
        t.fill.(b) <- t.fill.(b) + 1
      end
    done;
    t.n <- n;
    t.cur <- p
  end

let iter_close_pairs t ~f =
  if t.radius > 0. && t.n > 0 then begin
    let xs = t.cur.xs and ys = t.cur.ys in
    let r2 = t.radius *. t.radius in
    let close i j =
      let dx = xs.(i) -. xs.(j) and dy = ys.(i) -. ys.(j) in
      (dx *. dx) +. (dy *. dy) <= r2
    in
    let per_row = t.per_row in
    for u = 0 to t.touched_len - 1 do
      let b = t.touched.(u) in
      let s = t.start.(b) and c = t.count.(b) in
      (* intra-bucket pairs *)
      for a = s to s + c - 1 do
        let i = t.items.(a) in
        for a' = a + 1 to s + c - 1 do
          let j = t.items.(a') in
          if close i j then f i j
        done
      done;
      (* forward neighbours: E, N, NE, NW *)
      let bx = b mod per_row and by = b / per_row in
      let scan dx dy =
        let nx = bx + dx and ny = by + dy in
        if nx >= 0 && nx < per_row && ny >= 0 && ny < per_row then begin
          let b' = (ny * per_row) + nx in
          let s' = t.start.(b') and c' = t.count.(b') in
          if c' > 0 then
            for a = s to s + c - 1 do
              let i = t.items.(a) in
              for a' = s' to s' + c' - 1 do
                let j = t.items.(a') in
                if close i j then f i j
              done
            done
        end
      in
      scan 1 0;
      scan 0 1;
      scan 1 1;
      scan (-1) 1
    done
  end

let cover_cells _ = 0

let cover_target _ = 0

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
