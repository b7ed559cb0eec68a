(* Tests for the barrier-domain substrate and broadcast on it: the
   engine over [Domain_space]. *)

module Domain = Barriers.Domain
module E = Mobile_network.Engine
module DE = E.Make (Barriers.Domain_space)

let grid10 = Grid.create ~side:10 ()

(* A floor plan blocking exactly the nodes [blocked] selects, built from
   one unit rectangle per blocked node. *)
let of_blocked g ~blocked =
  Domain.with_rectangles g
    ~rects:
      (List.filter_map
         (fun v ->
           if blocked v then
             Some { Domain.x = Grid.x_of g v; y = Grid.y_of g v; w = 1; h = 1 }
           else None)
         (List.init (Grid.nodes g) Fun.id))

let blocked_count d = Grid.nodes (Domain.grid d) - Domain.free_count d

let free_degree d v =
  Domain.fold_free_neighbours d v ~init:0 ~f:(fun n _ -> n + 1)

(* The free nodes, ascending. *)
let free_nodes d =
  Array.of_list
    (List.filter (Domain.is_free d)
       (List.init (Grid.nodes (Domain.grid d)) Fun.id))

let test_unobstructed () =
  let d = Domain.unobstructed grid10 in
  Alcotest.(check int) "all free" 100 (Domain.free_count d);
  Alcotest.(check int) "none blocked" 0 (blocked_count d);
  Alcotest.(check bool) "connected" true (Domain.is_connected d);
  for v = 0 to 99 do
    Alcotest.(check bool) "free" true (Domain.is_free d v);
    Alcotest.(check int) "degree matches grid" (Grid.degree grid10 v)
      (free_degree d v)
  done

let test_of_blocked_predicate () =
  let d = of_blocked grid10 ~blocked:(fun v -> v mod 7 = 0) in
  for v = 0 to 99 do
    Alcotest.(check bool)
      (Printf.sprintf "node %d" v)
      (v mod 7 <> 0) (Domain.is_free d v)
  done;
  Alcotest.(check int) "free count" 85 (Domain.free_count d);
  Alcotest.(check int) "blocked count" 15 (blocked_count d)

let test_with_rectangles () =
  let d =
    Domain.with_rectangles grid10
      ~rects:[ { Domain.x = 2; y = 3; w = 3; h = 2 } ]
  in
  Alcotest.(check int) "blocked = 3x2" 6 (blocked_count d);
  Alcotest.(check bool) "inside blocked" false
    (Domain.is_free d (Grid.index grid10 ~x:3 ~y:4));
  Alcotest.(check bool) "outside free" true
    (Domain.is_free d (Grid.index grid10 ~x:5 ~y:3));
  (* clipping at the border *)
  let clipped =
    Domain.with_rectangles grid10
      ~rects:[ { Domain.x = 8; y = 8; w = 5; h = 5 } ]
  in
  Alcotest.(check int) "clipped to 2x2" 4 (blocked_count clipped)

let test_central_wall () =
  let d = Domain.central_wall grid10 ~gap:2 in
  (* wall at x = 5, 10 - 2 = 8 cells blocked *)
  Alcotest.(check int) "blocked cells" 8 (blocked_count d);
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
  Alcotest.(check int) "full gap = open" 0 (blocked_count open_wall)

let test_rooms () =
  let g = Grid.create ~side:12 () in
  let d = Domain.rooms g ~rooms_per_side:2 ~door:2 in
  Alcotest.(check bool) "connected through doors" true (Domain.is_connected d);
  Alcotest.(check bool) "some cells blocked" true (blocked_count d > 0);
  Alcotest.(check bool) "most cells free" true
    (Domain.free_count d > (Grid.nodes g * 3) / 4);
  let single = Domain.rooms g ~rooms_per_side:1 ~door:1 in
  Alcotest.(check int) "one room = open" 0 (blocked_count single);
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
  let d = of_blocked grid10 ~blocked:(fun _ -> true) in
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
  Alcotest.(check int) "degree drops next to wall" 2 (free_degree d v);
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
    (free_nodes d)

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

(* --- broadcast on a floor plan --- *)

let broadcast ?(agents = 8) ?(radius = 0) ?(los_blocking = false)
    ?(trial = 0) ?(max_steps = 200_000) domain =
  DE.run
    (DE.create
       ~space:(Barriers.Domain_space.create domain ~radius ~los_blocking)
       (E.default_spec ~agents ~seed:0 ~trial ~max_steps))

let test_sim_completes_open () =
  let d = Domain.unobstructed (Grid.create ~side:16 ()) in
  let r = broadcast d in
  (match r.E.outcome with
  | E.Completed -> ()
  | E.Timed_out -> Alcotest.fail "should complete");
  Alcotest.(check int) "all informed" 8 r.E.informed

let test_sim_completes_through_wall () =
  let d = Domain.central_wall (Grid.create ~side:16 ()) ~gap:2 in
  let r = broadcast d in
  match r.E.outcome with
  | E.Completed -> Alcotest.(check int) "all informed" 8 r.E.informed
  | E.Timed_out -> Alcotest.fail "connected domain must complete"

let test_sim_deterministic () =
  let d = Domain.rooms (Grid.create ~side:18 ()) ~rooms_per_side:2 ~door:2 in
  let a = broadcast d and b = broadcast d in
  Alcotest.(check int) "same steps" a.E.steps b.E.steps

let test_sim_times_out_when_disconnected () =
  let g = Grid.create ~side:10 () in
  let d =
    Domain.with_rectangles g ~rects:[ { Domain.x = 5; y = 0; w = 1; h = 10 } ]
  in
  let r = broadcast ~max_steps:2_000 ~agents:8 d in
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
  let r = broadcast ~agents:1 d in
  (match r.E.outcome with
  | E.Completed -> ()
  | E.Timed_out -> Alcotest.fail "single agent completes at t0");
  Alcotest.(check int) "zero steps" 0 r.E.steps

(* Each bad parameter is rejected by the layer that owns it: the engine
   (agents, step cap), the index (radius) or the floor plan's space. *)
let test_sim_validation () =
  let d = Domain.unobstructed grid10 in
  Alcotest.check_raises "agents" (Invalid_argument "Engine.create: agents <= 0")
    (fun () -> ignore (broadcast ~agents:0 d));
  Alcotest.check_raises "radius"
    (Invalid_argument "Spatial.create: negative radius") (fun () ->
      ignore (broadcast ~radius:(-1) d));
  Alcotest.check_raises "max_steps"
    (Invalid_argument "Engine.create: negative max_steps") (fun () ->
      ignore (broadcast ~max_steps:(-1) d));
  let empty = of_blocked grid10 ~blocked:(fun _ -> true) in
  Alcotest.check_raises "empty domain"
    (Invalid_argument "Domain_space.create: domain has no free node")
    (fun () -> ignore (broadcast empty))

let test_sim_los_blocking_not_faster () =
  let d = Domain.central_wall (Grid.create ~side:16 ()) ~gap:2 in
  let median los_blocking =
    let times =
      Array.init 7 (fun trial ->
          (broadcast ~radius:4 ~los_blocking ~trial d).E.steps)
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
        of_blocked g ~blocked:(fun v ->
            v <> 0 && Prng.bernoulli rng ~p:0.2)
      in
      let pos = ref (Domain.random_free_node d rng) in
      let ok = ref true in
      for _ = 1 to steps do
        pos := Domain.step_lazy d rng !pos;
        if not (Domain.is_free d !pos) then ok := false
      done;
      !ok)

(* [Domain_space]'s in-place move against [Domain.step_lazy], its
   reference: the same positions and the same stream draws, step by
   step, for every mobility rule and under a churn mask. Half the agents
   start where a move can fail: on a free node with a blocked or
   off-grid neighbour. *)
let prop_space_move_matches_step_lazy =
  let module S = Barriers.Domain_space in
  let module Space = Mobile_network.Space in
  let module Grid_space = Mobile_network.Grid_space in
  QCheck.Test.make ~name:"domain space move = step_lazy, draw for draw"
    ~count:200
    QCheck.(
      quad (int_range 0 2) (int_range 4 16) (int_range 1 30)
        (triple (int_range 0 2) bool small_int))
    (fun (plan, side, n, (rule, churn, seed)) ->
      let g = Grid.create ~side () in
      let rng = Prng.of_seed seed in
      let d =
        match plan with
        | 0 -> Domain.unobstructed g
        | 1 -> Domain.central_wall g ~gap:(1 + Prng.int rng side)
        | _ ->
            Domain.rooms g ~rooms_per_side:(2 + Prng.int rng 2)
              ~door:(1 + Prng.int rng 2)
      in
      let free = free_nodes d in
      let edged =
        Array.of_list
          (List.filter
             (fun v -> free_degree d v < 4)
             (Array.to_list free))
      in
      let nodes =
        Array.init n (fun _ ->
            if Array.length edged > 0 && Prng.bool rng then
              edged.(Prng.int rng (Array.length edged))
            else free.(Prng.int rng (Array.length free)))
      in
      let vec f =
        let v = Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout n in
        Array.iteri
          (fun i node -> Bigarray.Array1.set v i (Int32.of_int (f node)))
          nodes;
        v
      in
      let pos =
        { Grid_space.side; xs = vec (Grid.x_of g); ys = vec (Grid.y_of g) }
      in
      let streams () = Array.init n (fun i -> Prng.of_seed ((seed * 97) + i)) in
      let rngs = streams () and rngs' = streams () in
      let informed = Array.init n (fun _ -> Prng.bool rng) in
      let predators = Prng.int rng (n + 1) in
      let mobility, moves =
        match rule with
        | 0 -> (Space.Mobile_all, fun _ -> true)
        | 1 -> (Space.Mobile_informed informed, fun i -> informed.(i))
        | _ ->
            ( Space.Mobile_predators { informed; predators },
              fun i -> i < predators || not informed.(i) )
      in
      let space = S.create d ~radius:1 ~los_blocking:false in
      let agree () =
        Array.for_all Fun.id
          (Array.init n (fun i -> Grid_space.node_at pos i = nodes.(i)))
      in
      List.for_all
        (fun _ ->
          let present =
            if churn then Some (Array.init n (fun _ -> Prng.int rng 3 > 0))
            else None
          in
          S.move_all ?present space pos rngs mobility;
          Array.iteri
            (fun i v ->
              if moves i && match present with None -> true | Some p -> p.(i)
              then nodes.(i) <- Domain.step_lazy d rngs'.(i) v)
            nodes;
          agree ())
        (List.init 8 Fun.id)
      && Array.for_all2 (fun a b -> Prng.bits64 a = Prng.bits64 b) rngs rngs')

let prop_los_symmetric =
  QCheck.Test.make ~name:"line of sight is symmetric" ~count:200
    QCheck.(pair (int_range 4 14) small_int)
    (fun (side, seed) ->
      let g = Grid.create ~side () in
      let rng = Prng.of_seed seed in
      let d =
        of_blocked g ~blocked:(fun v ->
            v <> 0 && v <> 1 && Prng.bernoulli rng ~p:0.25)
      in
      let free = free_nodes d in
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
          [ prop_walk_stays_free; prop_space_move_matches_step_lazy;
            prop_los_symmetric ] );
    ]
