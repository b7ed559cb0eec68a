(* Tests for the visibility graph G_t(r) and percolation statistics. *)

let grid = Grid.create ~side:16 ()

let pos ~x ~y = Grid.index grid ~x ~y

let test_isolated_agents () =
  let positions = [| pos ~x:0 ~y:0; pos ~x:8 ~y:8; pos ~x:15 ~y:15 |] in
  let snap = Visibility.snapshot grid ~radius:2 ~positions in
  Alcotest.(check int) "no edges" 0 snap.Visibility.edge_count;
  Alcotest.(check int) "three singletons" 3
    (Dsu.set_count snap.Visibility.component_of);
  Alcotest.(check int) "max component" 1
    (Visibility.max_component_size snap.Visibility.component_of)

let test_chain_connectivity () =
  (* a - b within r, b - c within r, a - c NOT within r: multi-hop makes
     one component of 3 *)
  let positions = [| pos ~x:0 ~y:0; pos ~x:2 ~y:0; pos ~x:4 ~y:0 |] in
  let snap = Visibility.snapshot grid ~radius:2 ~positions in
  Alcotest.(check int) "two edges" 2 snap.Visibility.edge_count;
  Alcotest.(check bool) "a ~ c transitively" true
    (Dsu.same_set snap.Visibility.component_of 0 2);
  Alcotest.(check int) "one component" 1
    (Dsu.set_count snap.Visibility.component_of)

let test_radius_zero_meeting () =
  let positions = [| pos ~x:3 ~y:3; pos ~x:3 ~y:3; pos ~x:3 ~y:4 |] in
  let snap = Visibility.snapshot grid ~radius:0 ~positions in
  Alcotest.(check bool) "cohabitants connected" true
    (Dsu.same_set snap.Visibility.component_of 0 1);
  Alcotest.(check bool) "neighbour node not connected at r=0" false
    (Dsu.same_set snap.Visibility.component_of 0 2)

let test_component_sizes () =
  let positions =
    [| pos ~x:0 ~y:0; pos ~x:1 ~y:0; pos ~x:10 ~y:10; pos ~x:10 ~y:11;
       pos ~x:11 ~y:10; pos ~x:5 ~y:5 |]
  in
  let snap = Visibility.snapshot grid ~radius:1 ~positions in
  let sizes = Visibility.component_sizes snap.Visibility.component_of in
  let sorted = Array.copy sizes in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "sizes" [| 1; 2; 3 |] sorted;
  Alcotest.(check int) "sum is k" 6 (Array.fold_left ( + ) 0 sizes);
  Alcotest.(check int) "max component" 3
    (Visibility.max_component_size snap.Visibility.component_of);
  Alcotest.(check bool) "giant fraction" true
    (Float.abs (Visibility.giant_fraction snap.Visibility.component_of -. 0.5)
     < 1e-9)

let test_empty_agent_set () =
  let snap = Visibility.snapshot grid ~radius:3 ~positions:[||] in
  Alcotest.(check int) "no edges" 0 snap.Visibility.edge_count;
  Alcotest.(check int) "max component 0" 0
    (Visibility.max_component_size snap.Visibility.component_of);
  Alcotest.(check bool) "giant fraction 0" true
    (Visibility.giant_fraction snap.Visibility.component_of = 0.)

let test_full_connectivity_large_radius () =
  let rng = Prng.of_seed 4 in
  let positions = Array.init 12 (fun _ -> Grid.random_node grid rng) in
  let snap =
    Visibility.snapshot grid ~radius:(Grid.diameter grid) ~positions
  in
  Alcotest.(check int) "single component" 1
    (Dsu.set_count snap.Visibility.component_of);
  Alcotest.(check int) "complete graph edges" (12 * 11 / 2)
    snap.Visibility.edge_count

(* --- percolation --- *)

let test_rc_theory () =
  Alcotest.(check bool) "rc(1024, 16) = 8" true
    (Float.abs (Visibility.Percolation.rc_theory ~n:1024 ~k:16 -. 8.) < 1e-9);
  Alcotest.check_raises "bad args"
    (Invalid_argument "Percolation.rc_theory: n, k > 0") (fun () ->
      ignore (Visibility.Percolation.rc_theory ~n:0 ~k:1))

let test_threshold_ordering () =
  (* Theorem 2 threshold < Lemma 6 gamma < r_c *)
  let n = 4096 and k = 32 in
  let sub = Visibility.Percolation.sub_critical_radius ~n ~k in
  let gamma = Visibility.Percolation.island_parameter ~n ~k in
  let rc = Visibility.Percolation.rc_theory ~n ~k in
  Alcotest.(check bool) "sub < gamma" true (sub < gamma);
  Alcotest.(check bool) "gamma < rc" true (gamma < rc);
  Alcotest.(check bool) "ratio sub/rc = 1/(8 e^3)" true
    (Float.abs ((sub /. rc) -. (1. /. (8. *. exp 3.))) < 1e-9)

let test_giant_fraction_monotone_in_radius () =
  let rng = Prng.of_seed 5 in
  let g = Grid.create ~side:32 () in
  let k = 32 in
  let f0 = Visibility.Percolation.giant_fraction_at g rng ~k ~radius:0 ~trials:20 in
  let f_rc = Visibility.Percolation.giant_fraction_at g rng ~k ~radius:12 ~trials:20 in
  Alcotest.(check bool) "fractions in [0,1]" true
    (f0 >= 0. && f0 <= 1. && f_rc >= 0. && f_rc <= 1.);
  Alcotest.(check bool)
    (Printf.sprintf "far above rc (%.3f) >> at r=0 (%.3f)" f_rc f0)
    true (f_rc > 2. *. f0)

let test_estimate_rc_near_theory () =
  let rng = Prng.of_seed 6 in
  let g = Grid.create ~side:32 () in
  let k = 16 in
  (* rc theory = sqrt(1024/16) = 8 *)
  let est = Visibility.Percolation.estimate_rc g rng ~k ~trials:10 () in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %d within [3, 24]" est)
    true
    (est >= 3 && est <= 24)

let test_estimate_rc_invalid_target () =
  let rng = Prng.of_seed 7 in
  Alcotest.check_raises "target out of range"
    (Invalid_argument "Percolation.estimate_rc: target out of (0, 1]")
    (fun () ->
      ignore (Visibility.Percolation.estimate_rc grid rng ~k:4 ~trials:2 ~target:0. ()))

(* --- qcheck --- *)

let prop_sizes_partition =
  QCheck.Test.make ~name:"component sizes partition the agents" ~count:200
    QCheck.(quad (int_range 2 20) (int_range 1 30) (int_range 0 10) small_int)
    (fun (side, k, radius, seed) ->
      let g = Grid.create ~side () in
      let rng = Prng.of_seed seed in
      let positions = Array.init k (fun _ -> Grid.random_node g rng) in
      let snap = Visibility.snapshot g ~radius ~positions in
      let sizes = Visibility.component_sizes snap.Visibility.component_of in
      Array.fold_left ( + ) 0 sizes = k
      && Array.for_all (fun s -> s >= 1) sizes)

let prop_edges_consistent_with_components =
  QCheck.Test.make ~name:"components count >= k - edges" ~count:200
    QCheck.(quad (int_range 2 20) (int_range 1 25) (int_range 0 10) small_int)
    (fun (side, k, radius, seed) ->
      let g = Grid.create ~side () in
      let rng = Prng.of_seed seed in
      let positions = Array.init k (fun _ -> Grid.random_node g rng) in
      let snap = Visibility.snapshot g ~radius ~positions in
      (* each edge reduces the component count by at most one *)
      Dsu.set_count snap.Visibility.component_of
      >= k - snap.Visibility.edge_count)

let () =
  Alcotest.run "visibility"
    [
      ( "snapshots",
        [
          Alcotest.test_case "isolated agents" `Quick test_isolated_agents;
          Alcotest.test_case "chain connectivity" `Quick
            test_chain_connectivity;
          Alcotest.test_case "radius zero" `Quick test_radius_zero_meeting;
          Alcotest.test_case "component sizes" `Quick test_component_sizes;
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
          Alcotest.test_case "estimate_rc validation" `Quick
            test_estimate_rc_invalid_target;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sizes_partition; prop_edges_consistent_with_components ] );
    ]
