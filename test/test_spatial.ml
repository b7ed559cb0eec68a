(* Tests for the bucket-grid spatial index, validated against a brute
   force O(k^2) pair scan. *)

let brute_pairs grid ~radius positions =
  let k = Array.length positions in
  let out = ref [] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if Grid.manhattan grid positions.(i) positions.(j) <= radius then
        out := (i, j) :: !out
    done
  done;
  List.sort compare !out

let vec_of_coords coords =
  let v =
    Bigarray.Array1.create Bigarray.Int32 Bigarray.c_layout
      (Array.length coords)
  in
  Array.iteri (fun i c -> Bigarray.Array1.set v i (Int32.of_int c)) coords;
  v

(* Load node positions through the index's coordinate-vector entry. *)
let rebuild ?present index grid positions =
  let coords f = vec_of_coords (Array.map f positions) in
  ignore
    (Spatial.rebuild_soa ?present index
       ~xs:(coords (Grid.x_of grid))
       ~ys:(coords (Grid.y_of grid))
       ~n:(Array.length positions)
      : Spatial.update)

let index_pairs grid ~radius positions =
  let index = Spatial.create grid ~radius in
  rebuild index grid positions;
  let out = ref [] in
  Spatial.iter_close_pairs index ~f:(fun i j -> out := (i, j) :: !out);
  List.sort compare !out

(* Pairs in the order the index emits them. *)
let emitted index =
  let out = ref [] in
  Spatial.iter_close_pairs index ~f:(fun i j -> out := (i, j) :: !out);
  List.rev !out

let test_matches_brute_force_various () =
  let grid = Grid.create ~side:20 () in
  let rng = Prng.of_seed 100 in
  List.iter
    (fun (k, radius) ->
      for _ = 1 to 10 do
        let positions = Array.init k (fun _ -> Grid.random_node grid rng) in
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "k=%d r=%d" k radius)
          (brute_pairs grid ~radius positions)
          (index_pairs grid ~radius positions)
      done)
    [ (1, 0); (2, 0); (10, 0); (10, 1); (20, 3); (40, 5); (15, 19); (30, 40) ]

let test_radius_zero_cohabitation () =
  let grid = Grid.create ~side:4 () in
  (* agents 0,2 share a node; 1 is alone; 3,4,5 share another *)
  let positions = [| 5; 7; 5; 9; 9; 9 |] in
  let pairs = index_pairs grid ~radius:0 positions in
  Alcotest.(check (list (pair int int)))
    "exact cohabitation"
    [ (0, 2); (3, 4); (3, 5); (4, 5) ]
    pairs

let test_pairs_ordered_and_unique () =
  let grid = Grid.create ~side:10 () in
  let rng = Prng.of_seed 7 in
  let positions = Array.init 30 (fun _ -> Grid.random_node grid rng) in
  let index = Spatial.create grid ~radius:4 in
  rebuild index grid positions;
  let seen = Hashtbl.create 64 in
  Spatial.iter_close_pairs index ~f:(fun i j ->
      Alcotest.(check bool) "i < j" true (i < j);
      Alcotest.(check bool) "no duplicates" false (Hashtbl.mem seen (i, j));
      Hashtbl.replace seen (i, j) ())

let test_count_close_pairs () =
  let grid = Grid.create ~side:12 () in
  let rng = Prng.of_seed 9 in
  let positions = Array.init 25 (fun _ -> Grid.random_node grid rng) in
  let index = Spatial.create grid ~radius:2 in
  rebuild index grid positions;
  Alcotest.(check int) "count = brute force"
    (List.length (brute_pairs grid ~radius:2 positions))
    (Spatial.count_close_pairs index)

let test_rebuild_replaces () =
  let grid = Grid.create ~side:6 () in
  let index = Spatial.create grid ~radius:0 in
  rebuild index grid [| 0; 0 |];
  Alcotest.(check int) "one pair" 1 (Spatial.count_close_pairs index);
  rebuild index grid [| 0; 35 |];
  Alcotest.(check int) "pairs replaced" 0 (Spatial.count_close_pairs index)

let test_radius_getter_and_invalid () =
  let grid = Grid.create ~side:6 () in
  let index = Spatial.create grid ~radius:3 in
  Alcotest.(check int) "radius" 3 (Spatial.radius index);
  Alcotest.check_raises "negative radius"
    (Invalid_argument "Spatial.create: negative radius") (fun () ->
      ignore (Spatial.create grid ~radius:(-1)))

(* Radii up to max_int: the bucket side is clamped to the grid side, so
   the column count cannot overflow (it once went negative and the
   unchecked rebuild wrote out of bounds). From r = 2 (side - 1) on,
   every pair is close. *)
let test_huge_radius () =
  let all_pairs k =
    List.concat
      (List.init k (fun i -> List.init (k - 1 - i) (fun d -> (i, i + 1 + d))))
  in
  List.iter
    (fun (topology, radius) ->
      let grid = Grid.create ~topology ~side:16 () in
      let positions = [| 0; 255; 17; 240; 128 |] in
      let label = Printf.sprintf "r=%d" radius in
      Alcotest.(check (list (pair int int)))
        (label ^ " pairs") (all_pairs 5)
        (index_pairs grid ~radius positions);
      let index = Spatial.create grid ~radius in
      rebuild index grid positions;
      Alcotest.(check int) (label ^ " count") 10
        (Spatial.count_close_pairs index))
    [
      (Grid.Bounded, 4611686018427387889); (Grid.Bounded, max_int);
      (Grid.Torus, max_int); (Grid.Bounded, 30);
    ]

(* At radius 0 nothing is sized to the grid: an index for a side-2048
   grid (4.2 million nodes) fits in a few dozen KiB, where a table with
   one slot per node would take tens of MiB; and a rebuild of a handful
   of agents on a side-65536 grid (2^32 nodes) allocates a few KiB, its
   filter at its floor of 1024 slots and its arrays sized to the
   agents. *)
let test_radius0_memory () =
  let grid = Grid.create ~side:2048 () in
  let before = Gc.allocated_bytes () in
  let index = Spatial.create grid ~radius:0 in
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "create allocates %.0f bytes < 64 KiB" bytes)
    true (bytes < 65536.);
  rebuild index grid [| 5; 4194303; 5 |];
  Alcotest.(check (list (pair int int))) "still indexes" [ (0, 2) ]
    (emitted index);
  let side = 65536 in
  let grid = Grid.create ~side () in
  let xs = vec_of_coords [| 0; side - 1; 0; 1024; side - 1; 7 |]
  and ys = vec_of_coords [| 0; side - 1; 0; 0; side - 1; 9 |] in
  let index = Spatial.create grid ~radius:0 in
  let before = Gc.allocated_bytes () in
  ignore (Spatial.rebuild_soa index ~xs ~ys ~n:6 : Spatial.update);
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "side-65536 rebuild of 6 agents allocates %.0f bytes < 4 KiB"
       bytes)
    true (bytes < 4096.);
  Alcotest.(check (list (pair int int))) "side 65536 indexes"
    [ (0, 2); (1, 4) ] (emitted index)

(* --- allocation: the per-step rebuild and scan at radius >= 1 --- *)

let words_per_call f =
  let n = 1_000 in
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let pairs_seen = ref 0

let count_pair _ _ = incr pairs_seen

(* The engine's steady state: one [rebuild_soa] and one
   [iter_close_pairs] a step, with an [f] allocated once. 256 agents on
   a 64 x 64 grid at radius 2 (the dense-gossip shape), so both
   rebuilds and the scan reuse every array they grew on the first
   call. *)
let test_bucket_step_allocates_nothing () =
  List.iter
    (fun (name, topology) ->
      let grid = Grid.create ~topology ~side:64 () in
      let rng = Prng.of_seed 3 in
      let positions = Array.init 256 (fun _ -> Grid.random_node grid rng) in
      let coords f = vec_of_coords (Array.map f positions) in
      let xs = coords (Grid.x_of grid) and ys = coords (Grid.y_of grid) in
      let index = Spatial.create grid ~radius:2 in
      pairs_seen := 0;
      let words =
        words_per_call (fun () ->
            ignore (Spatial.rebuild_soa index ~xs ~ys ~n:256 : Spatial.update);
            Spatial.iter_close_pairs index ~f:count_pair)
      in
      Alcotest.(check bool) (name ^ ": visits pairs") true (!pairs_seen > 0);
      Alcotest.(check (float 0.)) (name ^ ": minor words per step") 0. words)
    [ ("bounded", Grid.Bounded); ("torus", Grid.Torus) ]

(* The radius-0 twin: 64 agents, half of them on 8 crowded nodes, on a
   side-64 grid (node ids of one sort digit: one pass) and a side-512
   grid (two passes, runs recorded by rank). Each array grown on the
   first call is reused. *)
let test_radius0_step_allocates_nothing () =
  List.iter
    (fun side ->
      let grid = Grid.create ~side () in
      let rng = Prng.of_seed 5 in
      let hot = Array.init 8 (fun _ -> Grid.random_node grid rng) in
      let positions =
        Array.init 64 (fun i ->
            if i land 1 = 0 then hot.(Prng.int rng 8)
            else Grid.random_node grid rng)
      in
      let coords f = vec_of_coords (Array.map f positions) in
      let xs = coords (Grid.x_of grid) and ys = coords (Grid.y_of grid) in
      let index = Spatial.create grid ~radius:0 in
      pairs_seen := 0;
      let words =
        words_per_call (fun () ->
            ignore (Spatial.rebuild_soa index ~xs ~ys ~n:64 : Spatial.update);
            Spatial.iter_close_pairs index ~f:count_pair)
      in
      let name = Printf.sprintf "side %d" side in
      Alcotest.(check bool) (name ^ ": visits pairs") true (!pairs_seen > 0);
      Alcotest.(check (float 0.)) (name ^ ": minor words per step") 0. words)
    [ 64; 512 ]

(* --- qcheck: randomized agreement with brute force --- *)

let prop_agreement =
  QCheck.Test.make ~name:"index pairs = brute-force pairs" ~count:200
    QCheck.(
      quad (int_range 2 25) (int_range 1 40) (int_range 0 12) small_int)
    (fun (side, k, radius, seed) ->
      let grid = Grid.create ~side () in
      let rng = Prng.of_seed seed in
      let positions = Array.init k (fun _ -> Grid.random_node grid rng) in
      brute_pairs grid ~radius positions = index_pairs grid ~radius positions)

let prop_pair_distance =
  QCheck.Test.make ~name:"reported pairs are within radius" ~count:200
    QCheck.(quad (int_range 2 20) (int_range 1 30) (int_range 0 8) small_int)
    (fun (side, k, radius, seed) ->
      let grid = Grid.create ~side () in
      let rng = Prng.of_seed seed in
      let positions = Array.init k (fun _ -> Grid.random_node grid rng) in
      let index = Spatial.create grid ~radius in
      rebuild index grid positions;
      let ok = ref true in
      Spatial.iter_close_pairs index ~f:(fun i j ->
          if Grid.manhattan grid positions.(i) positions.(j) > radius then
            ok := false);
      !ok)

(* Degenerate torus layouts: fewer than 3 distinct bucket columns means
   a wrap-aware 3x3 neighbourhood scan would visit the same bucket
   twice, so the index must take the exhaustive-fallback path. Make that
   case explicit instead of relying on the randomized properties to
   stumble into it. *)
let test_degenerate_torus_fallback () =
  (* side=4, radius=2: bucket side 2 -> only 2 bucket columns *)
  let grid = Grid.create ~topology:Grid.Torus ~side:4 () in
  let rng = Prng.of_seed 42 in
  for _ = 1 to 5 do
    let positions = Array.init 12 (fun _ -> Grid.random_node grid rng) in
    Alcotest.(check (list (pair int int)))
      "2 bucket columns matches brute force"
      (brute_pairs grid ~radius:2 positions)
      (index_pairs grid ~radius:2 positions)
  done;
  (* side=3, radius=4: buckets larger than the grid -> 1 bucket column *)
  let tiny = Grid.create ~topology:Grid.Torus ~side:3 () in
  let positions = [| 0; 1; 4; 8; 0; 4 |] in
  Alcotest.(check (list (pair int int)))
    "1 bucket column matches brute force"
    (brute_pairs tiny ~radius:4 positions)
    (index_pairs tiny ~radius:4 positions)

(* --- incremental reconcile ≡ from-scratch rebuild -------------------

   Drive one long-lived index + DSU through a random walk script the
   way an incremental caller does (Delta -> reconcile, Full -> reset +
   re-union) and check the resulting components against a freshly built
   index + freshly unioned DSU after every step. Churn scripts insert
   masked rebuilds, which force the Full path and exercise the
   Delta/Full transitions on either side of a mask. *)

let components_agree k inc scratch =
  let ok = ref true in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if Dsu.same_set inc i j <> Dsu.same_set scratch i j then ok := false
    done
  done;
  !ok

(* [offset] moves the script's box to [offset, offset + side) on a grid
   of side [side + offset]: from offset 55 on, node ids need two sort
   digits. *)
let prop_incremental_matches_scratch ?(offset = 0) ~torus ~churn () =
  let name =
    Printf.sprintf "incremental reconcile = scratch rebuild (%s%s%s)"
      (if torus then "torus" else "bounded")
      (if churn then ", churn" else "")
      (if offset > 0 then Printf.sprintf ", offset %d" offset else "")
  in
  QCheck.Test.make ~name ~count:80 (Qgen.walk_script ~churn ()) (fun s ->
      (* a torus needs side >= 3; widening the grid keeps the generated
         coordinates valid *)
      let side = if torus then max 3 s.Qgen.ws_side else s.Qgen.ws_side in
      let k = s.Qgen.ws_agents in
      let grid =
        let side = side + offset in
        if torus then Grid.create ~topology:Grid.Torus ~side ()
        else Grid.create ~side ()
      in
      let box c = vec_of_coords (Array.map (fun p -> offset + c p) s.Qgen.ws_starts) in
      let xs = box fst and ys = box snd in
      let index = Spatial.create grid ~radius:0 in
      let dsu = Dsu.create k in
      let ok = ref true in
      let sync present =
        match Spatial.rebuild_soa ?present index ~xs ~ys ~n:k with
        | Spatial.Full ->
            Dsu.reset dsu;
            Spatial.iter_close_pairs index ~f:(fun i j ->
                ignore (Dsu.union dsu i j))
        | Spatial.Delta ->
            Spatial.reconcile index
              ~dissolve:(fun i -> Dsu.dissolve dsu i)
              ~union:(fun i j -> ignore (Dsu.union dsu i j))
      in
      let check present =
        let positions =
          Array.init k (fun i ->
              Grid.index grid
                ~x:(Int32.to_int (Bigarray.Array1.get xs i))
                ~y:(Int32.to_int (Bigarray.Array1.get ys i)))
        in
        let fresh = Spatial.create grid ~radius:0 in
        rebuild ?present fresh grid positions;
        let scratch = Dsu.create k in
        Spatial.iter_close_pairs fresh ~f:(fun i j ->
            ignore (Dsu.union scratch i j));
        if not (components_agree k dsu scratch) then ok := false
      in
      let move v d =
        let v = v - offset in
        let nv = v + d in
        offset
        +
        if torus then (nv + side) mod side
        else if nv < 0 || nv >= side then v
        else nv
      in
      sync None;
      check None;
      List.iter
        (fun (moves, present) ->
          Array.iteri
            (fun i (dx, dy) ->
              let x = Int32.to_int (Bigarray.Array1.get xs i) in
              let y = Int32.to_int (Bigarray.Array1.get ys i) in
              Bigarray.Array1.set xs i (Int32.of_int (move x dx));
              Bigarray.Array1.set ys i (Int32.of_int (move y dy)))
            moves;
          sync present;
          check present)
        s.Qgen.ws_steps;
      !ok)

(* --- radius-0 pair order ---------------------------------------------

   The engine's loss faults draw one Bernoulli per visited pair, so at
   radius 0 the order of [iter_close_pairs] is part of the contract, not
   just the pair set: cells ordered by their smallest indexed agent,
   agents ascending within a cell, pairs lexicographic within a cell.
   The reference below builds that list naively; the index must emit it
   exactly, unsorted. Agents crowd onto a few random cells, so cells
   hold many agents even on the 300 x 300 grids whose node ids need
   more than one 12-bit sort digit. *)

let reference_order ?present positions =
  let k = Array.length positions in
  let indexed i = match present with None -> true | Some pr -> pr.(i) in
  let out = ref [] in
  for i = 0 to k - 1 do
    let cell = positions.(i) in
    let smallest =
      indexed i
      && not (List.exists (fun a -> indexed a && positions.(a) = cell)
                (List.init i Fun.id))
    in
    if smallest then begin
      let members =
        List.filter (fun a -> indexed a && positions.(a) = cell)
          (List.init k Fun.id)
      in
      List.iteri
        (fun x a ->
          List.iteri (fun y b -> if y > x then out := (a, b) :: !out) members)
        members
    end
  done;
  List.rev !out

let prop_radius0_pair_order =
  QCheck.Test.make ~name:"radius-0 pair order = reference order" ~count:300
    QCheck.(
      quad (int_range 1 300) (int_range 1 60) (int_range 1 12) small_int)
    (fun (side, k, cells, seed) ->
      let rng = Prng.of_seed seed in
      List.for_all
        (fun (topology, masked) ->
          let side =
            match topology with Grid.Torus -> max 3 side | Grid.Bounded -> side
          in
          let grid = Grid.create ~topology ~side () in
          let hot = Array.init cells (fun _ -> Grid.random_node grid rng) in
          let positions = Array.init k (fun _ -> hot.(Prng.int rng cells)) in
          let present =
            if masked then Some (Array.init k (fun _ -> Prng.int rng 4 > 0))
            else None
          in
          let expected = reference_order ?present positions in
          let index = Spatial.create grid ~radius:0 in
          rebuild ?present index grid positions;
          expected = emitted index)
        [
          (Grid.Bounded, false); (Grid.Bounded, true);
          (Grid.Torus, false); (Grid.Torus, true);
        ])

(* The radius-0 index lets only the agents whose node shares a slot of
   a population-sized filter with another agent into its sort, and the
   filter is far smaller than these grids (sides up to 4096, 16.7
   million nodes, for at most 200 agents): many distinct nodes share a
   slot. The positions mix lone agents, a few crowded nodes, agents
   along one row or column, nodes congruent modulo powers of two, and
   pairs of nodes that share a slot of a 2^b-slot table folded by
   [node lxor (node lsr b)] (distinct nodes, so never a pair). Small
   sides put k far above n. One index serves several rebuilds, masked
   and unmasked, so a filter left dirty by one would show in the next. *)
let filter_positions rng ~side ~k =
  let n = side * side in
  let hot = Array.init 3 (fun _ -> Prng.int rng n) in
  let line = Prng.int rng side and base = Prng.int rng n in
  let p = 1 lsl (8 + Prng.int rng 5) in
  Array.init k (fun _ ->
      match Prng.int rng 6 with
      | 0 -> Prng.int rng n
      | 1 -> hot.(Prng.int rng 3)
      | 2 -> (line * side) + Prng.int rng side
      | 3 -> (Prng.int rng side * side) + line
      | 4 -> (base mod p) + (p * Prng.int rng (((n - 1 - (base mod p)) / p) + 1))
      | _ ->
          let b = 10 + Prng.int rng 3 in
          let d = Prng.int rng (1 lsl b) in
          let v = base lxor (d lsl b) lxor d in
          if v < n then v else base)

let prop_radius0_filter_collisions =
  QCheck.Test.make ~name:"radius-0 pairs past filter collisions = reference"
    ~count:150
    QCheck.(pair (int_range 1 200) small_int)
    (fun (k, seed) ->
      let rng = Prng.of_seed seed in
      let side =
        match Prng.int rng 3 with
        | 0 -> 1 + Prng.int rng 8
        | 1 -> 1 + Prng.int rng 300
        | _ -> 1 + Prng.int rng 4096
      in
      let grid = Grid.create ~side () in
      let index = Spatial.create grid ~radius:0 in
      List.for_all
        (fun masked ->
          let positions = filter_positions rng ~side ~k in
          let present =
            if masked then Some (Array.init k (fun _ -> Prng.int rng 3 > 0))
            else None
          in
          rebuild ?present index grid positions;
          reference_order ?present positions = emitted index)
        [ false; true; false; false; true ])

(* --- radius >= 1 pair order ---------------------------------------------

   Loss faults draw one number per visited pair at every radius, so the
   bucket table's order is a contract too. The reference follows it
   from the documented geometry alone: buckets of [min radius side]
   nodes a side, [ceil (side / bs)] columns bounded (a trailing narrow
   column) and [floor (side / bs)] on a torus (the last column absorbs
   the remainder), each coordinate clamped to the last column; buckets
   in order of their smallest indexed agent, agents ascending within a
   bucket; per bucket its own pairs, then those against the E, N, NE and
   NW neighbours (wrapped on a torus, dropped off a bounded grid's
   edge); each pair as (min, max). A torus of fewer than 3 columns
   emits every close pair in lexicographic order. *)

let reference_order_buckets ?present grid ~radius positions =
  let k = Array.length positions in
  let side = Grid.side grid and torus = Grid.is_torus grid in
  let indexed i = match present with None -> true | Some pr -> pr.(i) in
  let close i j = Grid.manhattan grid positions.(i) positions.(j) <= radius in
  let bs = max 1 (min radius side) in
  let per_row = if torus then max 1 (side / bs) else (side + bs - 1) / bs in
  let out = ref [] in
  if torus && per_row < 3 then
    for i = 0 to k - 1 do
      for j = i + 1 to k - 1 do
        if indexed i && indexed j && close i j then out := (i, j) :: !out
      done
    done
  else begin
    let col c = min (c / bs) (per_row - 1) in
    let bucket i =
      (col (Grid.x_of grid positions.(i)), col (Grid.y_of grid positions.(i)))
    in
    let members b =
      List.filter (fun a -> indexed a && bucket a = b) (List.init k Fun.id)
    in
    let order =
      List.fold_left
        (fun acc i ->
          if indexed i && not (List.mem (bucket i) acc) then bucket i :: acc
          else acc)
        [] (List.init k Fun.id)
      |> List.rev
    in
    let emit i j = if close i j then out := (min i j, max i j) :: !out in
    List.iter
      (fun ((bx, by) as b) ->
        let here = members b in
        List.iteri
          (fun x i -> List.iteri (fun y j -> if y > x then emit i j) here)
          here;
        List.iter
          (fun (dx, dy) ->
            let nx = bx + dx and ny = by + dy in
            let nx, ny =
              if torus then ((nx + per_row) mod per_row, (ny + per_row) mod per_row)
              else (nx, ny)
            in
            if nx >= 0 && nx < per_row && ny >= 0 && ny < per_row then begin
              let there = members (nx, ny) in
              List.iter (fun i -> List.iter (emit i) there) here
            end)
          [ (1, 0); (0, 1); (1, 1); (-1, 1) ])
      order
  end;
  List.rev !out

(* Shapes on the layout's edges, each named by its bucket columns:
   exactly a power of two, one above it, a trailing narrow column, the
   smallest torus the buckets serve (3 columns, the last one wide), the
   tiny torus, and radii beyond the side. *)
let order_shapes =
  [
    (Grid.Bounded, 32, 2) (* 16 columns *); (Grid.Bounded, 34, 2) (* 17 *);
    (Grid.Bounded, 33, 2) (* 17, the last one node wide *);
    (Grid.Torus, 16, 4) (* 4 *); (Grid.Torus, 15, 3) (* 5 *);
    (Grid.Torus, 9, 3) (* 3 *); (Grid.Torus, 11, 3) (* 3, the last 5 wide *);
    (Grid.Torus, 8, 3) (* 2: lexicographic *);
    (Grid.Bounded, 12, 5); (Grid.Bounded, 7, 1); (Grid.Torus, 20, 1);
    (Grid.Bounded, 10, max_int); (Grid.Torus, 10, max_int);
  ]

(* Past [Config.max_side] the index keys columns beyond its key table
   by division: agents on both sides of column 65536, bounded and
   torus, still come out in the reference order. *)
let test_beyond_key_table () =
  List.iter
    (fun (topology, radius) ->
      let grid = Grid.create ~topology ~side:70000 () in
      let at x y = Grid.index grid ~x ~y in
      let positions =
        [| at 65535 10; at 65536 11; at 67000 12; at 69999 13; at 0 14;
           at 64000 3000; at 65537 1999; at 69000 69999; at 68000 0 |]
      in
      let expected = reference_order_buckets grid ~radius positions in
      let index = Spatial.create grid ~radius in
      rebuild index grid positions;
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "r=%d order" radius) expected (emitted index);
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "r=%d pairs" radius)
        (brute_pairs grid ~radius positions)
        (List.sort compare expected))
    [ (Grid.Bounded, 2000); (Grid.Torus, 3000) ]

let prop_bucket_pair_order =
  QCheck.Test.make ~name:"radius >= 1 pair order = reference order" ~count:60
    QCheck.(
      quad (int_range 3 40) (int_range 1 5) (int_range 1 60) small_int)
    (fun (side, radius, k, seed) ->
      let rng = Prng.of_seed seed in
      let drawn = [ (Grid.Bounded, side, radius); (Grid.Torus, side, radius) ] in
      List.for_all
        (fun ((topology, side, radius), masked) ->
          let grid = Grid.create ~topology ~side () in
          (* crowd a window of about 6r x 6r nodes so buckets hold
             several agents and most neighbours are occupied *)
          let w = min side (6 * min radius side) in
          let x0 = Prng.int rng side and y0 = Prng.int rng side in
          let positions =
            Array.init k (fun _ ->
                Grid.index grid
                  ~x:((x0 + Prng.int rng w) mod side)
                  ~y:((y0 + Prng.int rng w) mod side))
          in
          let present =
            if masked then Some (Array.init k (fun _ -> Prng.int rng 4 > 0))
            else None
          in
          let expected = reference_order_buckets ?present grid ~radius positions in
          let index = Spatial.create grid ~radius in
          (* a rebuild must leave nothing of the one before *)
          rebuild ?present index grid
            (Array.of_list (List.rev (Array.to_list positions)));
          rebuild ?present index grid positions;
          expected = emitted index)
        (List.concat_map
           (fun shape -> [ (shape, false); (shape, true) ])
           (drawn @ order_shapes)))

let prop_torus_agreement =
  QCheck.Test.make ~name:"torus index pairs = brute-force (wrap distances)"
    ~count:200
    QCheck.(
      quad (int_range 3 25) (int_range 1 40) (int_range 0 12) small_int)
    (fun (side, k, radius, seed) ->
      let grid = Grid.create ~topology:Grid.Torus ~side () in
      let rng = Prng.of_seed seed in
      let positions = Array.init k (fun _ -> Grid.random_node grid rng) in
      brute_pairs grid ~radius positions = index_pairs grid ~radius positions)

let () =
  Alcotest.run "spatial"
    [
      ( "correctness",
        [
          Alcotest.test_case "matches brute force" `Quick
            test_matches_brute_force_various;
          Alcotest.test_case "radius 0 cohabitation" `Quick
            test_radius_zero_cohabitation;
          Alcotest.test_case "pairs ordered, unique" `Quick
            test_pairs_ordered_and_unique;
          Alcotest.test_case "count" `Quick test_count_close_pairs;
          Alcotest.test_case "rebuild replaces" `Quick test_rebuild_replaces;
          Alcotest.test_case "radius getter / invalid" `Quick
            test_radius_getter_and_invalid;
          Alcotest.test_case "huge radius" `Quick test_huge_radius;
          Alcotest.test_case "radius 0 memory" `Quick test_radius0_memory;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "r = 2 rebuild and scan allocate nothing" `Quick
            test_bucket_step_allocates_nothing;
          Alcotest.test_case "r = 0 rebuild and scan allocate nothing" `Quick
            test_radius0_step_allocates_nothing;
        ] );
      ( "queries",
        [
          Alcotest.test_case "degenerate torus fallback" `Quick
            test_degenerate_torus_fallback;
          Alcotest.test_case "beyond the key table" `Quick
            test_beyond_key_table;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_agreement; prop_pair_distance; prop_torus_agreement;
            prop_radius0_pair_order; prop_bucket_pair_order;
            prop_incremental_matches_scratch ~torus:false ~churn:false ();
            prop_incremental_matches_scratch ~torus:true ~churn:false ();
            prop_incremental_matches_scratch ~torus:false ~churn:true ();
            prop_incremental_matches_scratch ~torus:true ~churn:true ();
            prop_incremental_matches_scratch ~offset:91 ~torus:false ~churn:true ();
            prop_radius0_filter_collisions;
          ] );
    ]
