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

let index_pairs grid ~radius positions =
  let index = Spatial.create grid ~radius in
  Spatial.rebuild index ~positions;
  let out = ref [] in
  Spatial.iter_close_pairs index ~f:(fun i j -> out := (i, j) :: !out);
  List.sort compare !out

let vec_of_coords coords =
  let v =
    Bigarray.Array1.create Bigarray.Int32 Bigarray.c_layout
      (Array.length coords)
  in
  Array.iteri (fun i c -> Bigarray.Array1.set v i (Int32.of_int c)) coords;
  v

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
  Spatial.rebuild index ~positions;
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
  Spatial.rebuild index ~positions;
  Alcotest.(check int) "count = brute force"
    (List.length (brute_pairs grid ~radius:2 positions))
    (Spatial.count_close_pairs index)

let test_rebuild_replaces () =
  let grid = Grid.create ~side:6 () in
  let index = Spatial.create grid ~radius:0 in
  Spatial.rebuild index ~positions:[| 0; 0 |];
  Alcotest.(check int) "one pair" 1 (Spatial.count_close_pairs index);
  Spatial.rebuild index ~positions:[| 0; 35 |];
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
        (label ^ " node path") (all_pairs 5)
        (index_pairs grid ~radius positions);
      let index = Spatial.create grid ~radius in
      let coords f = vec_of_coords (Array.map f positions) in
      ignore
        (Spatial.rebuild_soa index
           ~xs:(coords (Grid.x_of grid))
           ~ys:(coords (Grid.y_of grid))
           ~n:5
          : Spatial.update);
      Alcotest.(check int) (label ^ " SoA path") 10
        (Spatial.count_close_pairs index))
    [
      (Grid.Bounded, 4611686018427387889); (Grid.Bounded, max_int);
      (Grid.Torus, max_int); (Grid.Bounded, 30);
    ]

let test_iter_agents_near () =
  let grid = Grid.create ~side:15 () in
  let rng = Prng.of_seed 21 in
  let positions = Array.init 30 (fun _ -> Grid.random_node grid rng) in
  let index = Spatial.create grid ~radius:2 in
  Spatial.rebuild index ~positions;
  for probe = 0 to Grid.nodes grid - 1 do
    if probe mod 17 = 0 then begin
      let range = 4 in
      let expected =
        List.sort compare
          (List.filteri (fun _ _ -> true)
             (List.filter_map
                (fun i ->
                  if Grid.manhattan grid probe positions.(i) <= range then
                    Some i
                  else None)
                (List.init 30 (fun i -> i))))
      in
      let got = ref [] in
      Spatial.iter_agents_near index probe ~range ~f:(fun i ->
          got := i :: !got);
      Alcotest.(check (list int))
        (Printf.sprintf "agents near node %d" probe)
        expected
        (List.sort compare !got)
    end
  done

let test_iter_agents_near_invalid () =
  let grid = Grid.create ~side:6 () in
  let index = Spatial.create grid ~radius:1 in
  Spatial.rebuild index ~positions:[| 0 |];
  Alcotest.check_raises "negative range"
    (Invalid_argument "Spatial.iter_agents_near: negative range") (fun () ->
      Spatial.iter_agents_near index 0 ~range:(-1) ~f:(fun _ -> ()))

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
      Spatial.rebuild index ~positions;
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

let prop_incremental_matches_scratch ~torus ~churn =
  let name =
    Printf.sprintf "incremental reconcile = scratch rebuild (%s%s)"
      (if torus then "torus" else "bounded")
      (if churn then ", churn" else "")
  in
  QCheck.Test.make ~name ~count:80 (Qgen.walk_script ~churn ()) (fun s ->
      (* a torus needs side >= 3; widening the grid keeps the generated
         coordinates valid *)
      let side = if torus then max 3 s.Qgen.ws_side else s.Qgen.ws_side in
      let k = s.Qgen.ws_agents in
      let grid =
        if torus then Grid.create ~topology:Grid.Torus ~side ()
        else Grid.create ~side ()
      in
      let xs = vec_of_coords (Array.map fst s.Qgen.ws_starts) in
      let ys = vec_of_coords (Array.map snd s.Qgen.ws_starts) in
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
        Spatial.rebuild ?present fresh ~positions;
        let scratch = Dsu.create k in
        Spatial.iter_close_pairs fresh ~f:(fun i j ->
            ignore (Dsu.union scratch i j));
        if not (components_agree k dsu scratch) then ok := false
      in
      let move v d =
        let nv = v + d in
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

let test_iter_agents_near_torus () =
  let grid = Grid.create ~topology:Grid.Torus ~side:10 () in
  let rng = Prng.of_seed 31 in
  let positions = Array.init 20 (fun _ -> Grid.random_node grid rng) in
  let index = Spatial.create grid ~radius:2 in
  Spatial.rebuild index ~positions;
  let probe = Grid.index grid ~x:0 ~y:0 in
  let range = 3 in
  let expected =
    List.sort compare
      (List.filter_map
         (fun i ->
           if Grid.manhattan grid probe positions.(i) <= range then Some i
           else None)
         (List.init 20 (fun i -> i)))
  in
  let got = ref [] in
  Spatial.iter_agents_near index probe ~range ~f:(fun i -> got := i :: !got);
  Alcotest.(check (list int)) "wrap-aware query" expected
    (List.sort compare !got)

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
        ] );
      ( "queries",
        [
          Alcotest.test_case "agents near node" `Quick test_iter_agents_near;
          Alcotest.test_case "invalid range" `Quick
            test_iter_agents_near_invalid;
          Alcotest.test_case "torus query" `Quick test_iter_agents_near_torus;
          Alcotest.test_case "degenerate torus fallback" `Quick
            test_degenerate_torus_fallback;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_agreement; prop_pair_distance; prop_torus_agreement;
            prop_incremental_matches_scratch ~torus:false ~churn:false;
            prop_incremental_matches_scratch ~torus:true ~churn:false;
            prop_incremental_matches_scratch ~torus:false ~churn:true;
            prop_incremental_matches_scratch ~torus:true ~churn:true;
          ] );
    ]
