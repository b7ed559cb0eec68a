(* Tests for the largest island and giant fraction of the visibility
   graph over uniform placements, on every space. *)

module Percolation = Mobile_network.Percolation
module Grid_space = Mobile_network.Grid_space
module On_grid = Percolation.Make (Grid_space)
module On_box = Percolation.Make (Continuum.Space)

let grid_space ?(side = 16) radius =
  Grid_space.create (Grid.create ~side ()) ~kernel:Walk.Lazy_one_fifth ~radius

let box radius =
  Continuum.Space.create ~box_side:8. ~radius ~sigma:1. ~agents:32

(* --- snapshots --- *)

let test_isolated_agents () =
  (* a zero continuum radius has no edges, even between coinciding
     agents *)
  Alcotest.(check int) "every island is one agent" 1
    (On_box.largest_island (box 0.) (Prng.of_seed 1) ~agents:32)

let test_chain_connectivity () =
  (* the only free nodes are (0,0), (2,0) and (4,0): at radius 2 the
     ends see the middle but not each other, so the island spans all
     three by two hops once each node holds an agent, as 30 agents do
     at this seed *)
  let grid = Grid.create ~side:5 () in
  let free = List.map (fun x -> Grid.index grid ~x ~y:0) [ 0; 2; 4 ] in
  let domain =
    Barriers.Domain.of_blocked grid ~blocked:(fun v -> not (List.mem v free))
  in
  let module On_plan = Percolation.Make (Barriers.Domain_space) in
  let island ~radius =
    On_plan.largest_island
      (Barriers.Domain_space.create domain ~radius ~los_blocking:false)
      (Prng.of_seed 7) ~agents:30
  in
  Alcotest.(check int) "one island by two hops" 30 (island ~radius:2);
  Alcotest.(check bool) "split at radius 1" true (island ~radius:1 < 30)

let test_radius_zero () =
  (* on a one-node grid every agent shares the node *)
  Alcotest.(check int) "cohabitants form one island" 9
    (On_grid.largest_island (grid_space ~side:1 0) (Prng.of_seed 2) ~agents:9)

let test_empty_agent_set () =
  Alcotest.(check int) "no island" 0
    (On_grid.largest_island (grid_space 3) (Prng.of_seed 3) ~agents:0);
  Alcotest.check_raises "no fraction of no agents"
    (Invalid_argument "Percolation.giant_fraction: agents <= 0") (fun () ->
      ignore
        (On_grid.giant_fraction (grid_space 3) (Prng.of_seed 3) ~agents:0
           ~trials:1))

let test_full_connectivity_large_radius () =
  let radius = Grid.diameter (Grid.create ~side:16 ()) in
  Alcotest.(check int) "single island" 12
    (On_grid.largest_island (grid_space radius) (Prng.of_seed 4) ~agents:12);
  Alcotest.(check (float 0.)) "giant fraction 1" 1.
    (On_grid.giant_fraction (grid_space radius) (Prng.of_seed 4) ~agents:12
       ~trials:3)

(* --- percolation --- *)

module Theory = Mobile_network.Theory

let test_rc_theory () =
  Alcotest.(check bool) "rc(1024, 16) = 8" true
    (Float.abs (Theory.percolation_radius ~n:1024 ~k:16 -. 8.) < 1e-9);
  Alcotest.check_raises "bad args"
    (Invalid_argument "Theory.percolation_radius: n, k > 0") (fun () ->
      ignore (Theory.percolation_radius ~n:0 ~k:1))

let test_threshold_ordering () =
  (* Theorem 2 threshold < Lemma 6 gamma < r_c *)
  List.iter
    (fun (n, k) ->
      let sub = Theory.subcritical_radius ~n ~k
      and gamma = Theory.island_parameter ~n ~k
      and rc = Theory.percolation_radius ~n ~k in
      Alcotest.(check bool) "sub < gamma" true (sub < gamma);
      Alcotest.(check bool) "gamma < rc" true (gamma < rc);
      Alcotest.(check bool) "ratio sub/rc = 1/(8 e^3)" true
        (Float.abs ((sub /. rc) -. (1. /. (8. *. exp 3.))) < 1e-9))
    [ (1024, 16); (4096, 32) ]

let test_giant_fraction_monotone_in_radius () =
  let rng = Prng.of_seed 5 in
  let g = Grid.create ~side:32 () in
  let k = 32 in
  let f0 = Percolation.giant_fraction_at g rng ~k ~radius:0 ~trials:20 in
  let f_rc = Percolation.giant_fraction_at g rng ~k ~radius:12 ~trials:20 in
  Alcotest.(check bool) "fractions in [0,1]" true
    (f0 >= 0. && f0 <= 1. && f_rc >= 0. && f_rc <= 1.);
  Alcotest.(check bool)
    (Printf.sprintf "far above rc (%.3f) >> at r=0 (%.3f)" f_rc f0)
    true (f_rc > 2. *. f0)

let test_estimate_rc_near_theory () =
  let rng = Prng.of_seed 6 in
  let g = Grid.create ~side:32 () in
  (* rc theory = sqrt(1024/16) = 8 *)
  let est = Percolation.estimate_rc g rng ~k:16 ~trials:10 in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %d within [3, 24]" est)
    true
    (est >= 3 && est <= 24)

(* --- qcheck --- *)

(* Largest component by breadth-first search, each popped agent
   scanning every other: O(k^2) [close] tests. *)
let bfs_largest ~close k =
  let seen = Array.make k false in
  let best = ref 0 in
  for s = 0 to k - 1 do
    if not seen.(s) then begin
      seen.(s) <- true;
      let queue = Queue.create () and size = ref 0 in
      Queue.add s queue;
      while not (Queue.is_empty queue) do
        let i = Queue.pop queue in
        incr size;
        for j = 0 to k - 1 do
          if (not seen.(j)) && close i j then begin
            seen.(j) <- true;
            Queue.add j queue
          end
        done
      done;
      best := max !best !size
    end
  done;
  !best

(* Two successive placements on one space, so the second also checks
   that a reused index forgets the first; each is replayed from a copy
   of the stream and judged by [close] on the replayed positions. *)
module Oracle (S : Mobile_network.Space.S) = struct
  module P = Percolation.Make (S)

  let holds space ~agents ~seed ~close =
    let rng = Prng.of_seed seed in
    List.for_all
      (fun () ->
        let replay = Prng.copy rng in
        let got = P.largest_island space rng ~agents in
        let pos = S.init_positions space replay ~n:agents in
        got = bfs_largest ~close:(close pos) agents)
      [ (); () ]
end

module Grid_oracle = Oracle (Grid_space)
module Domain_oracle = Oracle (Barriers.Domain_space)
module Box_oracle = Oracle (Continuum.Space)

let prop_largest_island_oracle =
  QCheck.Test.make ~name:"largest_island = BFS over a pair scan" ~count:400
    QCheck.(
      pair
        (quad (int_range 0 3) (int_range 4 16) (int_range 0 40) (int_range 0 4))
        (pair small_int bool))
    (fun ((space, side, agents, radius), (seed, los_blocking)) ->
      let manhattan grid pos i j =
        Grid.manhattan grid (Grid_space.node_at pos i) (Grid_space.node_at pos j)
        <= radius
      in
      match space with
      | 0 | 1 ->
          let grid =
            Grid.create
              ~topology:(if space = 1 then Grid.Torus else Grid.Bounded)
              ~side ()
          in
          Grid_oracle.holds
            (Grid_space.create grid ~kernel:Walk.Lazy_one_fifth ~radius)
            ~agents ~seed ~close:(manhattan grid)
      | 2 ->
          let grid = Grid.create ~side () in
          let domain = Barriers.Domain.central_wall grid ~gap:1 in
          Domain_oracle.holds
            (Barriers.Domain_space.create domain ~radius ~los_blocking)
            ~agents ~seed
            ~close:(fun pos i j ->
              let node = Grid_space.node_at pos in
              manhattan grid pos i j
              && ((not los_blocking)
                 || Barriers.Domain.line_of_sight domain (node i) (node j)))
      | _ ->
          let radius = float_of_int radius in
          let module S = Continuum.Space in
          Box_oracle.holds
            (S.create ~box_side:(float_of_int side) ~radius ~sigma:1.
               ~agents:(max 1 agents))
            ~agents ~seed
            ~close:(fun (pos : S.pos) i j ->
              (* a zero radius has no edges, even between coinciding
                 agents *)
              let dx = pos.S.xs.(i) -. pos.S.xs.(j)
              and dy = pos.S.ys.(i) -. pos.S.ys.(j) in
              radius > 0. && (dx *. dx) +. (dy *. dy) <= radius *. radius))

let () =
  Alcotest.run "percolation"
    [
      ( "snapshots",
        [
          Alcotest.test_case "isolated agents" `Quick test_isolated_agents;
          Alcotest.test_case "chain connectivity" `Quick
            test_chain_connectivity;
          Alcotest.test_case "radius zero" `Quick test_radius_zero;
          Alcotest.test_case "empty agent set" `Quick test_empty_agent_set;
          Alcotest.test_case "large radius connects all" `Quick
            test_full_connectivity_large_radius;
        ] );
      ( "percolation",
        [
          Alcotest.test_case "rc theory" `Quick test_rc_theory;
          Alcotest.test_case "threshold ordering" `Quick
            test_threshold_ordering;
          Alcotest.test_case "giant fraction grows with radius" `Slow
            test_giant_fraction_monotone_in_radius;
          Alcotest.test_case "estimated rc sane" `Slow
            test_estimate_rc_near_theory;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_largest_island_oracle ] );
    ]
