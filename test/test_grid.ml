(* Unit and property tests for the Grid module. *)

let grid5 = Grid.create ~side:5 ()

let test_create_invalid () =
  Alcotest.check_raises "zero side"
    (Invalid_argument "Grid.create: side must be positive") (fun () ->
      ignore (Grid.create ~side:0 ()));
  Alcotest.check_raises "negative side"
    (Invalid_argument "Grid.create: side must be positive") (fun () ->
      ignore (Grid.create ~side:(-2) ()))

let test_basic_dimensions () =
  Alcotest.(check int) "side" 5 (Grid.side grid5);
  Alcotest.(check int) "nodes" 25 (Grid.nodes grid5);
  Alcotest.(check int) "corner-to-corner distance" 8
    (Grid.manhattan grid5 0 (Grid.nodes grid5 - 1))

let test_index_coords_roundtrip () =
  for x = 0 to 4 do
    for y = 0 to 4 do
      let v = Grid.index grid5 ~x ~y in
      Alcotest.(check int) "x roundtrip" x (Grid.x_of grid5 v);
      Alcotest.(check int) "y roundtrip" y (Grid.y_of grid5 v);
    done
  done

let test_index_bounds () =
  Alcotest.check_raises "x out of bounds"
    (Invalid_argument "Grid.index: coordinates out of bounds") (fun () ->
      ignore (Grid.index grid5 ~x:5 ~y:0));
  Alcotest.check_raises "negative y"
    (Invalid_argument "Grid.index: coordinates out of bounds") (fun () ->
      ignore (Grid.index grid5 ~x:0 ~y:(-1)))

let test_distances () =
  let a = Grid.index grid5 ~x:0 ~y:0 in
  let b = Grid.index grid5 ~x:3 ~y:4 in
  Alcotest.(check int) "manhattan" 7 (Grid.manhattan grid5 a b);
  Alcotest.(check int) "chebyshev" 4 (Grid.chebyshev grid5 a b);
  Alcotest.(check int) "self distance" 0 (Grid.manhattan grid5 a a);
  Alcotest.(check int) "symmetric" (Grid.manhattan grid5 a b)
    (Grid.manhattan grid5 b a)

let test_distance_to_border () =
  Alcotest.(check int) "corner" 0
    (Grid.distance_to_border grid5 (Grid.index grid5 ~x:0 ~y:0));
  Alcotest.(check int) "edge" 0
    (Grid.distance_to_border grid5 (Grid.index grid5 ~x:2 ~y:4));
  Alcotest.(check int) "center" 2
    (Grid.distance_to_border grid5 (Grid.index grid5 ~x:2 ~y:2))

let test_center () =
  Alcotest.(check int) "center of 5x5" (Grid.index grid5 ~x:2 ~y:2)
    (Grid.center grid5)

let test_degree_census () =
  (* a side-s grid has 4 corners (deg 2), 4(s-2) edge nodes (deg 3) and
     (s-2)^2 interior nodes (deg 4) *)
  let s = 6 in
  let g = Grid.create ~side:s () in
  let census = Array.make 5 0 in
  for v = 0 to Grid.nodes g - 1 do
    let d = Grid.degree g v in
    census.(d) <- census.(d) + 1
  done;
  Alcotest.(check int) "corners" 4 census.(2);
  Alcotest.(check int) "edges" (4 * (s - 2)) census.(3);
  Alcotest.(check int) "interior" ((s - 2) * (s - 2)) census.(4)

let test_neighbours_consistency () =
  for v = 0 to Grid.nodes grid5 - 1 do
    let ns = Grid.neighbours grid5 v in
    Alcotest.(check int) "count = degree" (Grid.degree grid5 v)
      (List.length ns);
    List.iter
      (fun u ->
        Alcotest.(check int) "adjacent" 1 (Grid.manhattan grid5 v u);
        Alcotest.(check bool) "mutual" true
          (List.mem v (Grid.neighbours grid5 u)))
      ns
  done

let test_fold_neighbours_matches_list () =
  for v = 0 to Grid.nodes grid5 - 1 do
    let folded =
      List.rev (Grid.fold_neighbours grid5 v ~init:[] ~f:(fun acc u -> u :: acc))
    in
    Alcotest.(check (list int)) "fold = list" (Grid.neighbours grid5 v) folded
  done

let test_degree_one_by_one_grid () =
  let g = Grid.create ~side:1 () in
  Alcotest.(check int) "isolated node" 0 (Grid.degree g 0);
  Alcotest.(check (list int)) "no neighbours" [] (Grid.neighbours g 0)

let test_ball_size_unbounded () =
  Alcotest.(check int) "d=0" 1 (Grid.ball_size_unbounded 0);
  Alcotest.(check int) "d=1" 5 (Grid.ball_size_unbounded 1);
  Alcotest.(check int) "d=2" 13 (Grid.ball_size_unbounded 2);
  Alcotest.(check int) "d=3" 25 (Grid.ball_size_unbounded 3);
  Alcotest.check_raises "negative"
    (Invalid_argument "Grid.ball_size_unbounded: negative radius") (fun () ->
      ignore (Grid.ball_size_unbounded (-1)))

let test_ball_size_interior_matches_unbounded () =
  let g = Grid.create ~side:11 () in
  let c = Grid.center g in
  for d = 0 to 4 do
    Alcotest.(check int)
      (Printf.sprintf "interior ball d=%d" d)
      (Grid.ball_size_unbounded d) (Grid.ball_size g c d)
  done

let test_ball_size_clipped_at_corner () =
  let corner = Grid.index grid5 ~x:0 ~y:0 in
  (* around a corner only the quadrant survives: d=1 -> 3 nodes *)
  Alcotest.(check int) "corner d=0" 1 (Grid.ball_size grid5 corner 0);
  Alcotest.(check int) "corner d=1" 3 (Grid.ball_size grid5 corner 1);
  Alcotest.(check int) "corner d=2" 6 (Grid.ball_size grid5 corner 2)

let test_ball_size_matches_fold () =
  let g = Grid.create ~side:7 () in
  for v = 0 to Grid.nodes g - 1 do
    for d = 0 to 3 do
      let counted = Grid.fold_ball g v d ~init:0 ~f:(fun acc _ -> acc + 1) in
      Alcotest.(check int) "fold count = ball_size" (Grid.ball_size g v d)
        counted
    done
  done

let test_fold_ball_members_within_distance () =
  let g = Grid.create ~side:9 () in
  let v = Grid.index g ~x:2 ~y:7 in
  let d = 3 in
  Grid.fold_ball g v d ~init:() ~f:(fun () u ->
      Alcotest.(check bool) "within distance" true (Grid.manhattan g v u <= d))

let test_random_node_in_range () =
  let rng = Prng.of_seed 1 in
  for _ = 1 to 1000 do
    let v = Grid.random_node grid5 rng in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 25)
  done

let test_random_node_covers_grid () =
  let rng = Prng.of_seed 2 in
  let seen = Array.make 25 false in
  for _ = 1 to 2000 do
    seen.(Grid.random_node grid5 rng) <- true
  done;
  Alcotest.(check bool) "every node reachable" true
    (Array.for_all (fun b -> b) seen)

(* --- tessellation --- *)

module T = Grid.Tessellation

let test_tess_basic () =
  let g = Grid.create ~side:8 () in
  let tess = T.create g ~cell_side:4 in
  Alcotest.(check int) "cells per row" 2 (T.cells_per_row tess);
  Alcotest.(check int) "cell count" 4 (T.cell_count tess)

let test_tess_invalid () =
  Alcotest.check_raises "zero cell"
    (Invalid_argument "Grid.Tessellation.create: cell_side must be positive")
    (fun () -> ignore (T.create grid5 ~cell_side:0))

(* Nodes per cell, counted through [cell_of_node]. *)
let census tess g =
  let counts = Array.make (T.cell_count tess) 0 in
  for v = 0 to Grid.nodes g - 1 do
    let c = T.cell_of_node tess v in
    counts.(c) <- counts.(c) + 1
  done;
  counts

let test_tess_partition () =
  (* every node belongs to exactly one cell: side 10 in cells of 3 is
     three full columns of cells and a clipped one of width 1 *)
  let g = Grid.create ~side:10 () in
  let tess = T.create g ~cell_side:3 in
  let width i = if i < 3 then 3 else 1 in
  Array.iteri
    (fun c count ->
      Alcotest.(check int)
        (Printf.sprintf "cell %d population" c)
        (width (c mod 4) * width (c / 4))
        count)
    (census tess g);
  Alcotest.(check int) "total nodes" (Grid.nodes g)
    (Array.fold_left ( + ) 0 (census tess g))

let test_tess_origin_and_membership () =
  let g = Grid.create ~side:10 () in
  let tess = T.create g ~cell_side:3 in
  for v = 0 to Grid.nodes g - 1 do
    let c = T.cell_of_node tess v in
    let ox = c mod T.cells_per_row tess * 3
    and oy = c / T.cells_per_row tess * 3 in
    let x = Grid.x_of g v and y = Grid.y_of g v in
    Alcotest.(check bool) "within cell bounds" true
      (x >= ox && x < ox + 3 && y >= oy && y < oy + 3)
  done

let test_tess_clipped_border () =
  (* side 10, cell 4: last row/column of cells is 2 wide *)
  let g = Grid.create ~side:10 () in
  let tess = T.create g ~cell_side:4 in
  Alcotest.(check int) "cells per row" 3 (T.cells_per_row tess);
  let counts = census tess g in
  Alcotest.(check int) "full cell" 16 counts.(0);
  Alcotest.(check int) "right-clipped" 8 counts.(2);
  Alcotest.(check int) "corner-clipped" 4 counts.(8)

(* --- qcheck properties --- *)

let sides = QCheck.int_range 2 30

let prop_triangle_inequality =
  QCheck.Test.make ~name:"manhattan triangle inequality" ~count:500
    QCheck.(pair sides (pair small_int small_int))
    (fun (side, (s1, s2)) ->
      let g = Grid.create ~side () in
      let rng = Prng.of_seed (s1 + (1000 * s2)) in
      let a = Grid.random_node g rng
      and b = Grid.random_node g rng
      and c = Grid.random_node g rng in
      Grid.manhattan g a c <= Grid.manhattan g a b + Grid.manhattan g b c)

let prop_chebyshev_le_manhattan =
  QCheck.Test.make ~name:"chebyshev <= manhattan <= 2 * chebyshev" ~count:500
    QCheck.(pair sides small_int)
    (fun (side, seed) ->
      let g = Grid.create ~side () in
      let rng = Prng.of_seed seed in
      let a = Grid.random_node g rng and b = Grid.random_node g rng in
      let m = Grid.manhattan g a b and c = Grid.chebyshev g a b in
      c <= m && m <= 2 * c)

let prop_tessellation_covers =
  QCheck.Test.make ~name:"tessellation assigns every node a valid cell"
    ~count:200
    QCheck.(pair sides (int_range 1 8))
    (fun (side, cell_side) ->
      let g = Grid.create ~side () in
      let tess = T.create g ~cell_side in
      let ok = ref true in
      for v = 0 to Grid.nodes g - 1 do
        let c = T.cell_of_node tess v in
        if c < 0 || c >= T.cell_count tess then ok := false
      done;
      !ok)

(* --- torus --- *)

let torus7 = Grid.create ~topology:Grid.Torus ~side:7 ()

let test_torus_create () =
  Alcotest.(check bool) "is torus" true (Grid.is_torus torus7);
  Alcotest.(check bool) "bounded by default" false (Grid.is_torus grid5);
  Alcotest.check_raises "tiny torus rejected"
    (Invalid_argument "Grid.create: torus needs side >= 3 (no multi-edges)")
    (fun () -> ignore (Grid.create ~topology:Grid.Torus ~side:2 ()))

let test_torus_degree_and_neighbours () =
  for v = 0 to Grid.nodes torus7 - 1 do
    Alcotest.(check int) "degree 4 everywhere" 4 (Grid.degree torus7 v);
    let ns = Grid.neighbours torus7 v in
    Alcotest.(check int) "four neighbours" 4 (List.length ns);
    List.iter
      (fun u ->
        Alcotest.(check int) "wrap distance 1" 1 (Grid.manhattan torus7 v u);
        Alcotest.(check bool) "mutual" true
          (List.mem v (Grid.neighbours torus7 u)))
      ns
  done

let test_torus_distances_wrap () =
  let a = Grid.index torus7 ~x:0 ~y:0 and b = Grid.index torus7 ~x:6 ~y:6 in
  (* wrapping: (0,0) and (6,6) are diagonal neighbours on the 7-torus *)
  Alcotest.(check int) "wrap manhattan" 2 (Grid.manhattan torus7 a b);
  Alcotest.(check int) "wrap chebyshev" 1 (Grid.chebyshev torus7 a b);
  let c = Grid.index torus7 ~x:3 ~y:0 in
  Alcotest.(check int) "max axis distance" 3 (Grid.manhattan torus7 a c);
  Alcotest.(check int) "diameter" 6
    (Grid.manhattan torus7 a (Grid.index torus7 ~x:3 ~y:3));
  Alcotest.(check int) "no border" max_int (Grid.distance_to_border torus7 a)

let test_torus_ball () =
  (* far from wrap: matches the unbounded formula everywhere *)
  for v = 0 to Grid.nodes torus7 - 1 do
    Alcotest.(check int) "uniform ball size" (Grid.ball_size_unbounded 2)
      (Grid.ball_size torus7 v 2)
  done;
  (* wrapping ball: counted directly, bounded by n *)
  Alcotest.(check bool) "large ball within n" true
    (Grid.ball_size torus7 0 6 <= Grid.nodes torus7);
  (* fold_ball refuses self-wrapping balls *)
  Alcotest.check_raises "self-wrapping ball"
    (Invalid_argument "Grid.fold_ball: torus ball wraps onto itself (2d+1 > side)")
    (fun () -> Grid.fold_ball torus7 0 4 ~init:() ~f:(fun () _ -> ()));
  (* valid fold matches ball_size *)
  let counted = Grid.fold_ball torus7 0 3 ~init:0 ~f:(fun acc _ -> acc + 1) in
  Alcotest.(check int) "fold count matches" (Grid.ball_size torus7 0 3) counted

let prop_torus_distance_symmetric =
  QCheck.Test.make ~name:"torus manhattan symmetric and bounded" ~count:300
    QCheck.(pair (int_range 3 20) small_int)
    (fun (side, seed) ->
      let g = Grid.create ~topology:Grid.Torus ~side () in
      let rng = Prng.of_seed seed in
      let a = Grid.random_node g rng and b = Grid.random_node g rng in
      let d = Grid.manhattan g a b in
      d = Grid.manhattan g b a && d <= 2 * (side / 2) && d >= 0)

let () =
  Alcotest.run "grid"
    [
      ( "construction",
        [
          Alcotest.test_case "invalid sides" `Quick test_create_invalid;
          Alcotest.test_case "dimensions" `Quick test_basic_dimensions;
          Alcotest.test_case "index/coords roundtrip" `Quick
            test_index_coords_roundtrip;
          Alcotest.test_case "index bounds" `Quick test_index_bounds;
          Alcotest.test_case "center" `Quick test_center;
        ] );
      ( "metric",
        [
          Alcotest.test_case "distances" `Quick test_distances;
          Alcotest.test_case "distance to border" `Quick
            test_distance_to_border;
        ] );
      ( "topology",
        [
          Alcotest.test_case "degree census" `Quick test_degree_census;
          Alcotest.test_case "neighbours consistent" `Quick
            test_neighbours_consistency;
          Alcotest.test_case "fold matches list" `Quick
            test_fold_neighbours_matches_list;
          Alcotest.test_case "1x1 grid" `Quick test_degree_one_by_one_grid;
        ] );
      ( "balls",
        [
          Alcotest.test_case "unbounded formula" `Quick
            test_ball_size_unbounded;
          Alcotest.test_case "interior matches formula" `Quick
            test_ball_size_interior_matches_unbounded;
          Alcotest.test_case "clipped at corner" `Quick
            test_ball_size_clipped_at_corner;
          Alcotest.test_case "ball_size = fold count" `Quick
            test_ball_size_matches_fold;
          Alcotest.test_case "fold members in range" `Quick
            test_fold_ball_members_within_distance;
        ] );
      ( "random",
        [
          Alcotest.test_case "random node in range" `Quick
            test_random_node_in_range;
          Alcotest.test_case "random node covers grid" `Quick
            test_random_node_covers_grid;
        ] );
      ( "tessellation",
        [
          Alcotest.test_case "basic" `Quick test_tess_basic;
          Alcotest.test_case "invalid" `Quick test_tess_invalid;
          Alcotest.test_case "partition" `Quick test_tess_partition;
          Alcotest.test_case "origin/membership" `Quick
            test_tess_origin_and_membership;
          Alcotest.test_case "clipped borders" `Quick test_tess_clipped_border;
        ] );
      ( "torus",
        [
          Alcotest.test_case "create" `Quick test_torus_create;
          Alcotest.test_case "degree and neighbours" `Quick
            test_torus_degree_and_neighbours;
          Alcotest.test_case "distances wrap" `Quick test_torus_distances_wrap;
          Alcotest.test_case "balls" `Quick test_torus_ball;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_triangle_inequality; prop_chebyshev_le_manhattan;
            prop_tessellation_covers; prop_torus_distance_symmetric;
          ] );
    ]
