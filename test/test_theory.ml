(* Tests for the closed-form theory curves. *)

module Theory = Mobile_network.Theory

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?eps msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %g vs %g" msg expected actual)
    true (feq ?eps expected actual)

let test_broadcast_theta () =
  check_float "n=100 k=4" 50. (Theory.broadcast_theta ~n:100 ~k:4);
  check_float "n=1024 k=16" 256. (Theory.broadcast_theta ~n:1024 ~k:16);
  check_float "gossip = broadcast" (Theory.broadcast_theta ~n:777 ~k:9)
    (Theory.gossip_theta ~n:777 ~k:9)

let test_broadcast_scaling_relations () =
  (* quadrupling k halves the bound; doubling n doubles it *)
  let base = Theory.broadcast_theta ~n:1000 ~k:10 in
  check_float ~eps:1e-9 "k scaling" (base /. 2.)
    (Theory.broadcast_theta ~n:1000 ~k:40);
  check_float ~eps:1e-9 "n scaling" (base *. 2.)
    (Theory.broadcast_theta ~n:2000 ~k:10)

let test_lower_below_theta () =
  List.iter
    (fun (n, k) ->
      Alcotest.(check bool) "lower < theta" true
        (Theory.broadcast_lower ~n ~k < Theory.broadcast_theta ~n ~k))
    [ (100, 4); (4096, 32); (65536, 256) ]

let test_wang_below_paper_for_large_k ()
    =
  (* the refuted bound decays faster (1/k vs 1/sqrt k), so once
     sqrt k > ln n * ln k it falls below the true bound *)
  let n = 65536 in
  Alcotest.(check bool) "wang < paper once k is large enough" true
    (Theory.wang_claimed ~n ~k:65536 < Theory.broadcast_theta ~n ~k:65536);
  (* their ratio grows with k *)
  let ratio k = Theory.broadcast_theta ~n ~k /. Theory.wang_claimed ~n ~k in
  Alcotest.(check bool) "ratio grows" true (ratio 1024 > ratio 16)

let test_dimitriou_dominates () =
  (* the general O(t* log k) bound is far above the truth *)
  List.iter
    (fun k ->
      Alcotest.(check bool) "dimitriou > theta" true
        (Theory.dimitriou_bound ~n:4096 ~k > Theory.broadcast_theta ~n:4096 ~k))
    [ 4; 64; 1024 ]

(* the radii's values and ordering are checked in test_percolation *)
let test_radii () =
  List.iter
    (fun (name, f, n, k) ->
      Alcotest.check_raises name
        (Invalid_argument (Printf.sprintf "Theory.%s: n, k > 0" name))
        (fun () -> ignore (f ~n ~k)))
    [
      ("percolation_radius", Theory.percolation_radius, 0, 1);
      ("subcritical_radius", Theory.subcritical_radius, 4, 0);
      ("island_parameter", Theory.island_parameter, -1, 4);
    ]

let test_island_bound () =
  check_float ~eps:1e-9 "ln n" (log 4096.) (Theory.island_size_bound ~n:4096)

let test_meeting_probability () =
  check_float "d=1 gives 1" 1. (Theory.meeting_probability_lower ~d:1);
  check_float "d=0 clamps" 1. (Theory.meeting_probability_lower ~d:0);
  let p8 = Theory.meeting_probability_lower ~d:8 in
  let p64 = Theory.meeting_probability_lower ~d:64 in
  Alcotest.(check bool) "decreasing in d" true (p64 < p8);
  check_float ~eps:1e-9 "1/ln 64" (1. /. log 64.) p64;
  Alcotest.check_raises "negative d"
    (Invalid_argument "Theory.meeting_probability_lower: negative d")
    (fun () -> ignore (Theory.meeting_probability_lower ~d:(-1)));
  check_float "hitting = meeting shape"
    (Theory.meeting_probability_lower ~d:12)
    (Theory.hitting_probability_lower ~d:12)

let test_displacement_tail () =
  check_float ~eps:1e-12 "lambda=0" 2. (Theory.displacement_tail ~lambda:0.);
  let t2 = Theory.displacement_tail ~lambda:2. in
  check_float ~eps:1e-9 "lambda=2" (2. *. exp (-2.)) t2;
  Alcotest.(check bool) "decreasing" true
    (Theory.displacement_tail ~lambda:3. < t2)

let test_range_lower () =
  check_float "steps <= 1" 1. (Theory.range_lower ~steps:1);
  let r = Theory.range_lower ~steps:1000 in
  check_float ~eps:1e-9 "l / ln l" (1000. /. log 1000.) r

let test_cover_and_extinction () =
  let n = 1024 in
  let lnn = log (float_of_int n) in
  check_float ~eps:1e-6 "cover k=1"
    ((1024. *. lnn *. lnn) +. (1024. *. lnn))
    (Theory.cover_time_multi ~n ~k:1);
  check_float ~eps:1e-6 "extinction k=4"
    (1024. *. lnn *. lnn /. 4.)
    (Theory.extinction_time ~n ~k:4);
  (* extinction decays linearly in k *)
  check_float ~eps:1e-6 "extinction halves"
    (Theory.extinction_time ~n ~k:4 /. 2.)
    (Theory.extinction_time ~n ~k:8)

let test_peres_polylog () =
  check_float ~eps:1e-9 "log^2 k" (log 100. ** 2.) (Theory.peres_polylog ~k:100);
  Alcotest.(check bool) "grows slowly" true
    (Theory.peres_polylog ~k:1_000_000 < 200.)

let test_frontier_speed () =
  let v = Theory.frontier_speed_bound ~n:4096 ~k:16 in
  Alcotest.(check bool) "positive and finite" true (v > 0. && Float.is_finite v)

let test_ln_clamps () =
  (* ln 1 = 0 is clamped: the curves stay positive at n = 1 *)
  check_float ~eps:1e-24 "ln 1 clamps to 1e-9" 1e-9
    (Theory.island_size_bound ~n:1);
  check_float ~eps:1e-12 "ln 3" (log 3.) (Theory.island_size_bound ~n:3)

let () =
  Alcotest.run "theory"
    [
      ( "curves",
        [
          Alcotest.test_case "broadcast theta" `Quick test_broadcast_theta;
          Alcotest.test_case "scaling relations" `Quick
            test_broadcast_scaling_relations;
          Alcotest.test_case "lower below theta" `Quick test_lower_below_theta;
          Alcotest.test_case "wang under-predicts" `Quick
            test_wang_below_paper_for_large_k;
          Alcotest.test_case "dimitriou dominates" `Quick
            test_dimitriou_dominates;
          Alcotest.test_case "cover and extinction" `Quick
            test_cover_and_extinction;
          Alcotest.test_case "peres polylog" `Quick test_peres_polylog;
        ] );
      ( "radii and lemmas",
        [
          Alcotest.test_case "radii" `Quick test_radii;
          Alcotest.test_case "island bound" `Quick test_island_bound;
          Alcotest.test_case "meeting probability" `Quick
            test_meeting_probability;
          Alcotest.test_case "displacement tail" `Quick test_displacement_tail;
          Alcotest.test_case "range lower" `Quick test_range_lower;
          Alcotest.test_case "frontier speed" `Quick test_frontier_speed;
          Alcotest.test_case "ln clamps" `Quick test_ln_clamps;
        ] );
    ]
