(* Tests for the barrier-domain substrate and its broadcast simulator. *)

module Domain = Barriers.Domain
module B = Barriers.Barrier_sim
module E = Mobile_network.Engine

let grid10 = Grid.create ~side:10 ()

let test_unobstructed () =
  let d = Domain.unobstructed grid10 in
  Alcotest.(check int) "all free" 100 (Domain.free_count d);
  Alcotest.(check int) "none blocked" 0 (Domain.blocked_count d);
  Alcotest.(check bool) "connected" true (Domain.is_connected d);
  for v = 0 to 99 do
    Alcotest.(check bool) "free" true (Domain.is_free d v);
    Alcotest.(check int) "degree matches grid" (Grid.degree grid10 v)
      (Domain.free_degree d v)
  done

let test_of_blocked_predicate () =
  let d = Domain.of_blocked grid10 ~blocked:(fun v -> v mod 7 = 0) in
  for v = 0 to 99 do
    Alcotest.(check bool)
      (Printf.sprintf "node %d" v)
      (v mod 7 <> 0) (Domain.is_free d v)
  done;
  Alcotest.(check int) "free count" 85 (Domain.free_count d);
  Alcotest.(check int) "blocked count" 15 (Domain.blocked_count d)

let test_free_nodes_sorted_and_fresh () =
  let d = Domain.of_blocked grid10 ~blocked:(fun v -> v < 10) in
  let nodes = Domain.free_nodes d in
  Alcotest.(check int) "count" 90 (Array.length nodes);
  Alcotest.(check int) "first free" 10 nodes.(0);
  for i = 1 to Array.length nodes - 1 do
    Alcotest.(check bool) "ascending" true (nodes.(i) > nodes.(i - 1))
  done;
  nodes.(0) <- 0;
  Alcotest.(check int) "internal array unaffected" 10 (Domain.free_nodes d).(0)

let test_with_rectangles () =
  let d =
    Domain.with_rectangles grid10
      ~rects:[ { Domain.x = 2; y = 3; w = 3; h = 2 } ]
  in
  Alcotest.(check int) "blocked = 3x2" 6 (Domain.blocked_count d);
  Alcotest.(check bool) "inside blocked" false
    (Domain.is_free d (Grid.index grid10 ~x:3 ~y:4));
  Alcotest.(check bool) "outside free" true
    (Domain.is_free d (Grid.index grid10 ~x:5 ~y:3));
  (* clipping at the border *)
  let clipped =
    Domain.with_rectangles grid10
      ~rects:[ { Domain.x = 8; y = 8; w = 5; h = 5 } ]
  in
  Alcotest.(check int) "clipped to 2x2" 4 (Domain.blocked_count clipped)

let test_central_wall () =
  let d = Domain.central_wall grid10 ~gap:2 in
  (* wall at x = 5, 10 - 2 = 8 cells blocked *)
  Alcotest.(check int) "blocked cells" 8 (Domain.blocked_count d);
  Alcotest.(check bool) "connected through gap" true (Domain.is_connected d);
  (* gap rows are 4 and 5 *)
  Alcotest.(check bool) "gap cell free" true
    (Domain.is_free d (Grid.index grid10 ~x:5 ~y:4));
  Alcotest.(check bool) "wall cell blocked" false
    (Domain.is_free d (Grid.index grid10 ~x:5 ~y:0));
  Alcotest.check_raises "gap < 1"
    (Invalid_argument "Domain.central_wall: gap must be positive") (fun () ->
      ignore (Domain.central_wall grid10 ~gap:0));
  (* a gap as wide as the side blocks nothing *)
  let open_wall = Domain.central_wall grid10 ~gap:10 in
  Alcotest.(check int) "full gap = open" 0 (Domain.blocked_count open_wall)

let test_rooms () =
  let g = Grid.create ~side:12 () in
  let d = Domain.rooms g ~rooms_per_side:2 ~door:2 in
  Alcotest.(check bool) "connected through doors" true (Domain.is_connected d);
  Alcotest.(check bool) "some cells blocked" true (Domain.blocked_count d > 0);
  Alcotest.(check bool) "most cells free" true
    (Domain.free_count d > (Grid.nodes g * 3) / 4);
  let single = Domain.rooms g ~rooms_per_side:1 ~door:1 in
  Alcotest.(check int) "one room = open" 0 (Domain.blocked_count single);
  Alcotest.check_raises "bad rooms"
    (Invalid_argument "Domain.rooms: rooms_per_side must be positive")
    (fun () -> ignore (Domain.rooms g ~rooms_per_side:0 ~door:1))

let test_disconnected_domain () =
  (* a full-height wall cuts the grid in two *)
  let d =
    Domain.with_rectangles grid10
      ~rects:[ { Domain.x = 5; y = 0; w = 1; h = 10 } ]
  in
  Alcotest.(check bool) "disconnected" false (Domain.is_connected d);
  Alcotest.(check int) "90 free nodes" 90 (Domain.free_count d)

let test_empty_domain_connected () =
  let d = Domain.of_blocked grid10 ~blocked:(fun _ -> true) in
  Alcotest.(check int) "no free nodes" 0 (Domain.free_count d);
  Alcotest.(check bool) "vacuously connected" true (Domain.is_connected d);
  let rng = Prng.of_seed 1 in
  Alcotest.check_raises "no free node to sample"
    (Invalid_argument "Domain.random_free_node: no free node") (fun () ->
      ignore (Domain.random_free_node d rng))

let test_random_free_node () =
  let d = Domain.central_wall grid10 ~gap:2 in
  let rng = Prng.of_seed 2 in
  for _ = 1 to 500 do
    let v = Domain.random_free_node d rng in
    Alcotest.(check bool) "always free" true (Domain.is_free d v)
  done

let test_free_neighbours () =
  let d = Domain.central_wall grid10 ~gap:2 in
  (* the cell left of a wall cell loses its east neighbour *)
  let v = Grid.index grid10 ~x:4 ~y:0 in
  Alcotest.(check int) "degree drops next to wall" 2 (Domain.free_degree d v);
  let listed =
    Domain.fold_free_neighbours d v ~init:[] ~f:(fun acc u -> u :: acc)
  in
  List.iter
    (fun u ->
      Alcotest.(check bool) "neighbour free" true (Domain.is_free d u);
      Alcotest.(check int) "adjacent" 1 (Grid.manhattan grid10 v u))
    listed

(* --- line of sight --- *)

let test_los_basic () =
  let d = Domain.unobstructed grid10 in
  let a = Grid.index grid10 ~x:1 ~y:1 and b = Grid.index grid10 ~x:8 ~y:7 in
  Alcotest.(check bool) "reflexive" true (Domain.line_of_sight d a a);
  Alcotest.(check bool) "clear on open grid" true (Domain.line_of_sight d a b);
  Alcotest.(check bool) "symmetric" (Domain.line_of_sight d a b)
    (Domain.line_of_sight d b a)

let test_los_blocked_by_wall () =
  let d = Domain.central_wall grid10 ~gap:2 in
  (* horizontal ray through the wall far from the gap *)
  let a = Grid.index grid10 ~x:2 ~y:0 and b = Grid.index grid10 ~x:8 ~y:0 in
  Alcotest.(check bool) "wall blocks" false (Domain.line_of_sight d a b);
  (* ray through the gap *)
  let c = Grid.index grid10 ~x:2 ~y:4 and e = Grid.index grid10 ~x:8 ~y:4 in
  Alcotest.(check bool) "gap passes" true (Domain.line_of_sight d c e);
  (* blocked endpoint *)
  let w = Grid.index grid10 ~x:5 ~y:0 in
  Alcotest.(check bool) "blocked endpoint" false (Domain.line_of_sight d a w)

let test_los_same_side () =
  let d = Domain.central_wall grid10 ~gap:2 in
  let a = Grid.index grid10 ~x:0 ~y:2 and b = Grid.index grid10 ~x:4 ~y:8 in
  Alcotest.(check bool) "same chamber clear" true (Domain.line_of_sight d a b)

(* --- walking --- *)

let test_step_lazy_respects_domain () =
  let d = Domain.central_wall grid10 ~gap:2 in
  let rng = Prng.of_seed 3 in
  Array.iter
    (fun start ->
      let pos = ref start in
      for _ = 1 to 50 do
        let next = Domain.step_lazy d rng !pos in
        Alcotest.(check bool) "lands free" true (Domain.is_free d next);
        Alcotest.(check bool) "unit move" true
          (Grid.manhattan grid10 !pos next <= 1);
        pos := next
      done)
    (Domain.free_nodes d)

let test_step_lazy_stationarity () =
  (* uniform over free nodes must be preserved by the domain kernel *)
  let g = Grid.create ~side:6 () in
  let d = Domain.central_wall g ~gap:2 in
  let rng = Prng.of_seed 4 in
  let walkers = 30_000 in
  let counts = Hashtbl.create 36 in
  for _ = 1 to walkers do
    let start = Domain.random_free_node d rng in
    let pos = ref start in
    for _ = 1 to 25 do
      pos := Domain.step_lazy d rng !pos
    done;
    Hashtbl.replace counts !pos
      (1 + Option.value (Hashtbl.find_opt counts !pos) ~default:0)
  done;
  let expected = walkers / Domain.free_count d in
  Hashtbl.iter
    (fun v c ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d occupancy %d near %d" v c expected)
        true
        (abs (c - expected) < expected / 3))
    counts

(* --- barrier simulator --- *)

let default_cfg domain =
  {
    B.domain;
    agents = 8;
    radius = 0;
    los_blocking = false;
    seed = 0;
    trial = 0;
    max_steps = 200_000;
  }

let test_sim_completes_open () =
  let d = Domain.unobstructed (Grid.create ~side:16 ()) in
  let r = B.broadcast (default_cfg d) in
  (match r.E.outcome with
  | E.Completed -> ()
  | E.Timed_out -> Alcotest.fail "should complete");
  Alcotest.(check int) "all informed" 8 r.E.informed

let test_sim_completes_through_wall () =
  let d = Domain.central_wall (Grid.create ~side:16 ()) ~gap:2 in
  let r = B.broadcast (default_cfg d) in
  match r.E.outcome with
  | E.Completed -> Alcotest.(check int) "all informed" 8 r.E.informed
  | E.Timed_out -> Alcotest.fail "connected domain must complete"

let test_sim_deterministic () =
  let d = Domain.rooms (Grid.create ~side:18 ()) ~rooms_per_side:2 ~door:2 in
  let a = B.broadcast (default_cfg d) and b = B.broadcast (default_cfg d) in
  Alcotest.(check int) "same steps" a.E.steps b.E.steps

let test_sim_times_out_when_disconnected () =
  let g = Grid.create ~side:10 () in
  let d =
    Domain.with_rectangles g ~rects:[ { Domain.x = 5; y = 0; w = 1; h = 10 } ]
  in
  let cfg = { (default_cfg d) with B.max_steps = 2_000; agents = 8 } in
  let r = B.broadcast cfg in
  (* with 8 agents both chambers are occupied w.h.p., so the rumor can
     never cross *)
  match r.E.outcome with
  | E.Timed_out ->
      Alcotest.(check bool) "someone stayed uninformed" true (r.E.informed < 8)
  | E.Completed ->
      (* possible only if every agent started in the source's chamber *)
      Alcotest.(check int) "degenerate completion" 8 r.E.informed

let test_sim_single_agent () =
  let d = Domain.unobstructed grid10 in
  let r = B.broadcast { (default_cfg d) with B.agents = 1 } in
  (match r.E.outcome with
  | E.Completed -> ()
  | E.Timed_out -> Alcotest.fail "single agent completes at t0");
  Alcotest.(check int) "zero steps" 0 r.E.steps

let test_sim_validation () =
  let d = Domain.unobstructed grid10 in
  Alcotest.check_raises "agents" (Invalid_argument "Barrier_sim.broadcast: agents <= 0")
    (fun () -> ignore (B.broadcast { (default_cfg d) with B.agents = 0 }));
  Alcotest.check_raises "radius"
    (Invalid_argument "Barrier_sim.broadcast: negative radius") (fun () ->
      ignore (B.broadcast { (default_cfg d) with B.radius = -1 }));
  let empty = Domain.of_blocked grid10 ~blocked:(fun _ -> true) in
  Alcotest.check_raises "empty domain"
    (Invalid_argument "Barrier_sim.broadcast: domain has no free node")
    (fun () -> ignore (B.broadcast (default_cfg empty)))

let test_sim_los_blocking_not_faster () =
  let d = Domain.central_wall (Grid.create ~side:16 ()) ~gap:2 in
  let median los_blocking =
    let times =
      Array.init 7 (fun trial ->
          (B.broadcast
             { (default_cfg d) with B.radius = 4; los_blocking; trial })
            .E.steps)
    in
    Array.sort compare times;
    float_of_int times.(3)
  in
  Alcotest.(check bool) "LOS blocking slower or equal" true
    (median true >= median false)

(* --- qcheck --- *)

let prop_walk_stays_free =
  QCheck.Test.make ~name:"domain walk never enters blocked cells" ~count:100
    QCheck.(triple (int_range 4 16) small_int (int_range 0 50))
    (fun (side, seed, steps) ->
      let g = Grid.create ~side () in
      let rng = Prng.of_seed seed in
      (* random blocked pattern at ~20% density, but keep at least one
         free node *)
      let d =
        Domain.of_blocked g ~blocked:(fun v ->
            v <> 0 && Prng.bernoulli rng ~p:0.2)
      in
      let pos = ref (Domain.random_free_node d rng) in
      let ok = ref true in
      for _ = 1 to steps do
        pos := Domain.step_lazy d rng !pos;
        if not (Domain.is_free d !pos) then ok := false
      done;
      !ok)

let prop_los_symmetric =
  QCheck.Test.make ~name:"line of sight is symmetric" ~count:200
    QCheck.(pair (int_range 4 14) small_int)
    (fun (side, seed) ->
      let g = Grid.create ~side () in
      let rng = Prng.of_seed seed in
      let d =
        Domain.of_blocked g ~blocked:(fun v ->
            v <> 0 && v <> 1 && Prng.bernoulli rng ~p:0.25)
      in
      let free = Domain.free_nodes d in
      let a = free.(Prng.int rng (Array.length free)) in
      let b = free.(Prng.int rng (Array.length free)) in
      Domain.line_of_sight d a b = Domain.line_of_sight d b a)

let () =
  Alcotest.run "barriers"
    [
      ( "domains",
        [
          Alcotest.test_case "unobstructed" `Quick test_unobstructed;
          Alcotest.test_case "of_blocked" `Quick test_of_blocked_predicate;
          Alcotest.test_case "free_nodes" `Quick
            test_free_nodes_sorted_and_fresh;
          Alcotest.test_case "rectangles" `Quick test_with_rectangles;
          Alcotest.test_case "central wall" `Quick test_central_wall;
          Alcotest.test_case "rooms" `Quick test_rooms;
          Alcotest.test_case "disconnected" `Quick test_disconnected_domain;
          Alcotest.test_case "empty domain" `Quick test_empty_domain_connected;
          Alcotest.test_case "random free node" `Quick test_random_free_node;
          Alcotest.test_case "free neighbours" `Quick test_free_neighbours;
        ] );
      ( "line of sight",
        [
          Alcotest.test_case "basics" `Quick test_los_basic;
          Alcotest.test_case "blocked by wall" `Quick test_los_blocked_by_wall;
          Alcotest.test_case "same side clear" `Quick test_los_same_side;
        ] );
      ( "walking",
        [
          Alcotest.test_case "respects domain" `Quick
            test_step_lazy_respects_domain;
          Alcotest.test_case "uniform stationarity" `Slow
            test_step_lazy_stationarity;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "completes (open)" `Quick test_sim_completes_open;
          Alcotest.test_case "completes (wall)" `Quick
            test_sim_completes_through_wall;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
          Alcotest.test_case "times out when cut" `Quick
            test_sim_times_out_when_disconnected;
          Alcotest.test_case "single agent" `Quick test_sim_single_agent;
          Alcotest.test_case "validation" `Quick test_sim_validation;
          Alcotest.test_case "LOS blocking not faster" `Slow
            test_sim_los_blocking_not_faster;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_walk_stays_free; prop_los_symmetric ] );
    ]
