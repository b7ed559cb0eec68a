(* Tests for the random-walk kernels: validity of single steps, the
   paper's stationarity property, and the excursion statistics. *)

let kernels = [ Walk.Lazy_one_fifth; Walk.Simple; Walk.Lazy_half ]

let test_step_stays_on_grid () =
  let grid = Grid.create ~side:6 () in
  let rng = Prng.of_seed 3 in
  List.iter
    (fun kernel ->
      for v = 0 to Grid.nodes grid - 1 do
        for _ = 1 to 20 do
          let u = Walk.step grid kernel rng v in
          Alcotest.(check bool) "valid node" true (u >= 0 && u < 36);
          Alcotest.(check bool) "moves at most 1" true
            (Grid.manhattan grid v u <= 1)
        done
      done)
    kernels

let test_simple_never_stays () =
  let grid = Grid.create ~side:5 () in
  let rng = Prng.of_seed 5 in
  for v = 0 to Grid.nodes grid - 1 do
    for _ = 1 to 30 do
      let u = Walk.step grid Walk.Simple rng v in
      Alcotest.(check bool) "simple walk always moves" true (u <> v)
    done
  done

let test_lazy_can_stay () =
  let grid = Grid.create ~side:5 () in
  let rng = Prng.of_seed 7 in
  let stayed = ref false in
  let v = Grid.center grid in
  for _ = 1 to 200 do
    if Walk.step grid Walk.Lazy_one_fifth rng v = v then stayed := true
  done;
  Alcotest.(check bool) "lazy walk sometimes stays" true !stayed

let test_lazy_one_fifth_rates () =
  (* from an interior node: each neighbour 1/5, stay 1/5 *)
  let grid = Grid.create ~side:7 () in
  let rng = Prng.of_seed 11 in
  let v = Grid.center grid in
  let counts = Hashtbl.create 8 in
  let n = 50_000 in
  for _ = 1 to n do
    let u = Walk.step grid Walk.Lazy_one_fifth rng v in
    Hashtbl.replace counts u
      (1 + Option.value (Hashtbl.find_opt counts u) ~default:0)
  done;
  let expected = n / 5 in
  Hashtbl.iter
    (fun _ c ->
      Alcotest.(check bool) "each outcome near 1/5" true
        (abs (c - expected) < expected / 10))
    counts;
  Alcotest.(check int) "five outcomes" 5 (Hashtbl.length counts)

let test_lazy_one_fifth_boundary_rates () =
  (* from a corner (2 neighbours): each neighbour 1/5, stay 3/5 *)
  let grid = Grid.create ~side:7 () in
  let rng = Prng.of_seed 13 in
  let corner = Grid.index grid ~x:0 ~y:0 in
  let stay = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Walk.step grid Walk.Lazy_one_fifth rng corner = corner then incr stay
  done;
  let freq = float_of_int !stay /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "corner stay rate %.3f near 0.6" freq)
    true
    (Float.abs (freq -. 0.6) < 0.02)

let test_uniform_stationarity () =
  (* the paper's kernel preserves the uniform distribution: after many
     steps the occupancy histogram stays flat *)
  let side = 6 in
  let grid = Grid.create ~side () in
  let rng = Prng.of_seed 17 in
  let walkers = 20_000 in
  let steps = 30 in
  let counts = Array.make (Grid.nodes grid) 0 in
  for _ = 1 to walkers do
    let start = Grid.random_node grid rng in
    let finish = Walk.advance grid Walk.Lazy_one_fifth rng start ~steps in
    counts.(finish) <- counts.(finish) + 1
  done;
  let expected = walkers / Grid.nodes grid in
  Array.iteri
    (fun v c ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d occupancy %d near %d" v c expected)
        true
        (abs (c - expected) < expected / 4))
    counts

let test_simple_walk_not_uniform () =
  (* the plain SRW is stationary proportional to degree, so corners must
     be under-occupied relative to interior nodes *)
  let side = 6 in
  let grid = Grid.create ~side () in
  let rng = Prng.of_seed 19 in
  let walkers = 40_000 in
  let steps = 40 in
  let counts = Array.make (Grid.nodes grid) 0 in
  for _ = 1 to walkers do
    let start = Grid.random_node grid rng in
    let finish = Walk.advance grid Walk.Simple rng start ~steps in
    counts.(finish) <- counts.(finish) + 1
  done;
  let corner = counts.(0) in
  let interior = counts.(Grid.center grid) in
  Alcotest.(check bool)
    (Printf.sprintf "corner %d well below interior %d" corner interior)
    true
    (float_of_int corner < 0.8 *. float_of_int interior)

let test_advance_and_path () =
  let grid = Grid.create ~side:8 () in
  let start = Grid.center grid in
  let path =
    Walk.path grid Walk.Lazy_one_fifth (Prng.of_seed 23) start ~steps:50
  in
  Alcotest.(check int) "path length" 51 (Array.length path);
  Alcotest.(check int) "path starts at start" start path.(0);
  for i = 1 to 50 do
    Alcotest.(check bool) "consecutive nodes adjacent or equal" true
      (Grid.manhattan grid path.(i - 1) path.(i) <= 1)
  done;
  (* advance with the same stream reproduces the path's endpoint *)
  let finish =
    Walk.advance grid Walk.Lazy_one_fifth (Prng.of_seed 23) start ~steps:50
  in
  Alcotest.(check int) "advance = path end" path.(50) finish;
  Alcotest.(check int) "zero steps" start
    (Walk.advance grid Walk.Simple (Prng.of_seed 1) start ~steps:0);
  Alcotest.check_raises "negative steps"
    (Invalid_argument "Walk.advance: negative steps") (fun () ->
      ignore (Walk.advance grid Walk.Simple (Prng.of_seed 1) start ~steps:(-1)))

let test_excursion_stats () =
  let grid = Grid.create ~side:16 () in
  let start = Grid.center grid in
  let rng = Prng.of_seed 29 in
  for _ = 1 to 20 do
    let e = Walk.excursion_stats grid Walk.Lazy_one_fifth rng start ~steps:40 in
    Alcotest.(check bool) "range within [1, steps+1]" true
      (e.Walk.range >= 1 && e.Walk.range <= 41);
    Alcotest.(check bool) "displacement bounded by steps" true
      (e.Walk.max_displacement <= 40);
    Alcotest.(check bool) "final within max displacement" true
      (Grid.manhattan grid start e.Walk.final <= e.Walk.max_displacement
       || e.Walk.max_displacement = 0)
  done;
  let zero = Walk.excursion_stats grid Walk.Simple rng start ~steps:0 in
  Alcotest.(check int) "zero-step range" 1 zero.Walk.range;
  Alcotest.(check int) "zero-step displacement" 0 zero.Walk.max_displacement;
  Alcotest.(check int) "zero-step final" start zero.Walk.final

let test_excursion_consistency_with_path () =
  (* the same stream must give identical results computed via path *)
  let grid = Grid.create ~side:12 () in
  let start = Grid.index grid ~x:2 ~y:3 in
  let steps = 60 in
  let e =
    Walk.excursion_stats grid Walk.Lazy_half (Prng.of_seed 31) start ~steps
  in
  let path = Walk.path grid Walk.Lazy_half (Prng.of_seed 31) start ~steps in
  let visited = Hashtbl.create 64 in
  Array.iter (fun v -> Hashtbl.replace visited v ()) path;
  let max_disp =
    Array.fold_left
      (fun acc v -> max acc (Grid.manhattan grid start v))
      0 path
  in
  Alcotest.(check int) "range matches path" (Hashtbl.length visited) e.Walk.range;
  Alcotest.(check int) "displacement matches path" max_disp
    e.Walk.max_displacement;
  Alcotest.(check int) "final matches path" path.(steps) e.Walk.final

let test_hits_within () =
  let grid = Grid.create ~side:10 () in
  let rng = Prng.of_seed 37 in
  let v = Grid.center grid in
  Alcotest.(check bool) "start = target hits immediately" true
    (Walk.hits_within grid Walk.Simple rng ~start:v ~target:v ~steps:0);
  (* a neighbour is unreachable in zero steps *)
  let u = List.hd (Grid.neighbours grid v) in
  Alcotest.(check bool) "no steps, no hit" false
    (Walk.hits_within grid Walk.Simple rng ~start:v ~target:u ~steps:0);
  (* generous budget on a small grid: hit is near-certain *)
  let hits = ref 0 in
  for _ = 1 to 50 do
    if Walk.hits_within grid Walk.Lazy_one_fifth rng ~start:v ~target:u ~steps:2000
    then incr hits
  done;
  Alcotest.(check bool) "long walks hit a neighbour" true (!hits >= 48)

let test_first_meeting () =
  let grid = Grid.create ~side:8 () in
  let rng = Prng.of_seed 41 in
  let v = Grid.center grid in
  Alcotest.(check (option int)) "same start meets at time 0" (Some 0)
    (Walk.first_meeting grid Walk.Simple rng ~a:v ~b:v ~steps:10 ());
  Alcotest.(check (option int)) "where-filter can reject time 0" None
    (Walk.first_meeting grid Walk.Simple rng ~a:v ~b:v ~steps:0
       ~where:(fun _ -> false) ());
  (* distant starts cannot meet at time 0 *)
  let a = Grid.index grid ~x:0 ~y:0 and b = Grid.index grid ~x:7 ~y:7 in
  (match Walk.first_meeting grid Walk.Lazy_one_fifth rng ~a ~b ~steps:5000 () with
  | Some t -> Alcotest.(check bool) "meeting time positive" true (t > 0)
  | None -> ());
  (* zero budget, distinct starts: no meeting *)
  Alcotest.(check (option int)) "no budget, no meeting" None
    (Walk.first_meeting grid Walk.Simple rng ~a ~b ~steps:0 ())

let test_meeting_disk () =
  let grid = Grid.create ~side:12 () in
  let a = Grid.index grid ~x:2 ~y:5 and b = Grid.index grid ~x:6 ~y:5 in
  let d = Grid.manhattan grid a b in
  let in_lens = Walk.meeting_disk grid ~a ~b in
  for v = 0 to Grid.nodes grid - 1 do
    let expected = Grid.manhattan grid a v <= d && Grid.manhattan grid b v <= d in
    Alcotest.(check bool) "lens membership" expected (in_lens v)
  done

let test_kernel_to_string () =
  Alcotest.(check string) "lazy" "lazy-1/5" (Walk.kernel_to_string Walk.Lazy_one_fifth);
  Alcotest.(check string) "simple" "simple" (Walk.kernel_to_string Walk.Simple);
  Alcotest.(check string) "lazy half" "lazy-1/2" (Walk.kernel_to_string Walk.Lazy_half)

(* --- qcheck --- *)

let prop_path_valid =
  QCheck.Test.make ~name:"paths stay on grid with unit steps" ~count:200
    QCheck.(triple (int_range 2 20) small_int (int_range 0 100))
    (fun (side, seed, steps) ->
      let grid = Grid.create ~side () in
      let rng = Prng.of_seed seed in
      let start = Grid.random_node grid rng in
      let path = Walk.path grid Walk.Lazy_one_fifth rng start ~steps in
      let ok = ref (path.(0) = start) in
      for i = 1 to steps do
        if
          path.(i) < 0
          || path.(i) >= Grid.nodes grid
          || Grid.manhattan grid path.(i - 1) path.(i) > 1
        then ok := false
      done;
      !ok)

let prop_excursion_range_bounds =
  QCheck.Test.make ~name:"excursion range within [1, steps+1]" ~count:200
    QCheck.(triple (int_range 2 20) small_int (int_range 0 80))
    (fun (side, seed, steps) ->
      let grid = Grid.create ~side () in
      let rng = Prng.of_seed seed in
      let start = Grid.random_node grid rng in
      let e = Walk.excursion_stats grid Walk.Simple rng start ~steps in
      e.Walk.range >= 1
      && e.Walk.range <= steps + 1
      && e.Walk.range <= Grid.nodes grid)

(* --- oracle: the packed-node kernels ---

   A node-index implementation of every kernel, stepped one transition at
   a time: the reference the coordinate loops must reproduce draw for
   draw. Each step recomputes (x, y) from the node with a [mod] and a
   [/]; the Simple kernel folds over the neighbour list. *)

module Oracle = struct
  let directed_neighbour grid v dir =
    let side = Grid.side grid in
    let x = Grid.x_of grid v and y = Grid.y_of grid v in
    if Grid.is_torus grid then
      match dir with
      | 0 -> (y * side) + ((x + side - 1) mod side)
      | 1 -> (y * side) + ((x + 1) mod side)
      | 2 -> (((y + side - 1) mod side) * side) + x
      | _ -> (((y + 1) mod side) * side) + x
    else
      match dir with
      | 0 -> if x > 0 then v - 1 else v
      | 1 -> if x < side - 1 then v + 1 else v
      | 2 -> if y > 0 then v - side else v
      | _ -> if y < side - 1 then v + side else v

  let uniform_neighbour grid rng v =
    let deg = Grid.degree grid v in
    if deg = 0 then v
    else
      let pick = Prng.int rng deg in
      fst
        (Grid.fold_neighbours grid v ~init:(v, 0) ~f:(fun (best, i) u ->
             ((if i = pick then u else best), i + 1)))

  let jump grid rng rho v =
    if rho = 0 then v
    else
      let side = Grid.side grid in
      let x = Grid.x_of grid v and y = Grid.y_of grid v in
      let rec draw () =
        let dx = Prng.int_incl rng (-rho) rho in
        let dy = Prng.int_incl rng (-rho) rho in
        if abs dx + abs dy > rho then draw ()
        else if Grid.is_torus grid then
          let nx = (((x + dx) mod side) + side) mod side in
          let ny = (((y + dy) mod side) + side) mod side in
          (ny * side) + nx
        else
          let nx = x + dx and ny = y + dy in
          if nx < 0 || nx >= side || ny < 0 || ny >= side then draw ()
          else (ny * side) + nx
      in
      draw ()

  let step grid kernel rng v =
    match kernel with
    | Walk.Lazy_one_fifth ->
        let d = Prng.int rng 5 in
        if d = 4 then v else directed_neighbour grid v d
    | Walk.Simple -> uniform_neighbour grid rng v
    | Walk.Lazy_half -> if Prng.bool rng then v else uniform_neighbour grid rng v
    | Walk.Jump rho -> jump grid rng rho v

  let path grid kernel rng v ~steps =
    let out = Array.make (steps + 1) v in
    for i = 1 to steps do
      out.(i) <- step grid kernel rng out.(i - 1)
    done;
    out

  let excursion_stats grid kernel rng start ~steps =
    let p = path grid kernel rng start ~steps in
    let distinct = List.length (List.sort_uniq Int.compare (Array.to_list p)) in
    {
      Walk.final = p.(steps);
      range = distinct;
      max_displacement =
        Array.fold_left (fun m v -> max m (Grid.manhattan grid start v)) 0 p;
    }

  let hits_within grid kernel rng ~start ~target ~steps =
    let rec loop pos t =
      pos = target || (t < steps && loop (step grid kernel rng pos) (t + 1))
    in
    loop start 0

  let first_meeting grid kernel rng ~a ~b ~steps ~where =
    let rec loop pa pb t =
      if pa = pb && where pa then Some t
      else if t = steps then None
      else
        let pa = step grid kernel rng pa in
        let pb = step grid kernel rng pb in
        loop pa pb (t + 1)
    in
    loop a b 0
end

let all_kernels =
  [ Walk.Lazy_one_fifth; Walk.Simple; Walk.Lazy_half; Walk.Jump 0;
    Walk.Jump 1; Walk.Jump 3 ]

(* A coordinate on an edge half the time: corners and edges are where
   the clamp, the wrap and the Simple kernel's degree differ. *)
let coord_gen side =
  QCheck.Gen.(frequency [ (1, return 0); (1, return (side - 1));
                          (2, int_range 0 (side - 1)) ])

type walk_case = {
  grid : Grid.t;
  kernel : Walk.kernel;
  seed : int;
  a : int;
  b : int;
  steps : int;
}

let walk_case_gen =
  let open QCheck.Gen in
  let* side = int_range 1 20 in
  let* torus = if side >= 3 then bool else return false in
  let topology = if torus then Grid.Torus else Grid.Bounded in
  let grid = Grid.create ~topology ~side () in
  let node = map2 (fun x y -> Grid.index grid ~x ~y) (coord_gen side) (coord_gen side) in
  let* kernel = oneofl all_kernels in
  let* seed = int_range 0 1_000_000 in
  let* a = node and* b = node in
  let* steps = frequency [ (1, int_range 0 3); (3, int_range 0 300) ] in
  return { grid; kernel; seed; a; b; steps }

let print_walk_case c =
  Printf.sprintf "side %d%s, %s, seed %d, a %d, b %d, steps %d"
    (Grid.side c.grid)
    (if Grid.is_torus c.grid then " torus" else "")
    (Walk.kernel_to_string c.kernel) c.seed c.a c.b c.steps

(* Runs the fast call and the oracle on two copies of case [c]'s stream:
   equal results, and equal stream states afterwards. *)
let same_as_oracle c fast oracle =
  let r1 = Prng.of_seed c.seed and r2 = Prng.of_seed c.seed in
  let x = fast r1 and y = oracle r2 in
  x = y && Int64.equal (Prng.fingerprint r1) (Prng.fingerprint r2)

let prop_scalar_walks_match_oracle =
  QCheck.Test.make ~name:"scalar walks equal a fold of the packed-node kernels"
    ~count:1500
    (QCheck.make ~print:print_walk_case walk_case_gen)
    (fun c ->
      let { grid; kernel; a; b; steps; _ } = c in
      (* an arbitrary region that is neither everywhere nor nowhere *)
      let where v = v mod 3 <> 1 in
      let check name ok =
        if not ok then QCheck.Test.fail_reportf "%s differs from the oracle" name
      in
      check "advance"
        (same_as_oracle c
           (fun r -> Walk.advance grid kernel r a ~steps)
           (fun r -> (Oracle.path grid kernel r a ~steps).(steps)));
      check "path"
        (same_as_oracle c
           (fun r -> Walk.path grid kernel r a ~steps)
           (fun r -> Oracle.path grid kernel r a ~steps));
      check "excursion_stats"
        (same_as_oracle c
           (fun r -> Walk.excursion_stats grid kernel r a ~steps)
           (fun r -> Oracle.excursion_stats grid kernel r a ~steps));
      check "hits_within"
        (same_as_oracle c
           (fun r -> Walk.hits_within grid kernel r ~start:a ~target:b ~steps)
           (fun r -> Oracle.hits_within grid kernel r ~start:a ~target:b ~steps));
      check "first_meeting"
        (same_as_oracle c
           (fun r -> Walk.first_meeting grid kernel r ~a ~b ~steps ())
           (fun r ->
             Oracle.first_meeting grid kernel r ~a ~b ~steps ~where:(fun _ -> true)));
      check "first_meeting ~where"
        (same_as_oracle c
           (fun r -> Walk.first_meeting grid kernel r ~a ~b ~steps ~where ())
           (fun r -> Oracle.first_meeting grid kernel r ~a ~b ~steps ~where));
      true)

(* The draw contract of walk.mli: [step], [step_inplace] and [move_all]
   take the same draws in the same order, so a population stepped through
   any of them ends in the same positions with the same streams. *)
let prop_entry_points_agree =
  let gen =
    let open QCheck.Gen in
    let* c = walk_case_gen in
    let* n = int_range 1 6 in
    let* rounds = int_range 1 40 in
    let* starts =
      list_repeat n
        (map2
           (fun x y -> Grid.index c.grid ~x ~y)
           (coord_gen (Grid.side c.grid))
           (coord_gen (Grid.side c.grid)))
    in
    return (c, Array.of_list starts, rounds)
  in
  QCheck.Test.make ~name:"step, step_inplace and move_all draw alike"
    ~count:1000
    (QCheck.make
       ~print:(fun (c, starts, rounds) ->
         Printf.sprintf "%s, %d agents, %d rounds" (print_walk_case c)
           (Array.length starts) rounds)
       gen)
    (fun (c, starts, rounds) ->
      let { grid; kernel; seed; _ } = c in
      let n = Array.length starts in
      let side = Grid.side grid in
      let streams () = Prng.split_n (Prng.of_seed seed) n in
      let vec () =
        Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n
      in
      let load () =
        let xs = vec () and ys = vec () in
        Array.iteri
          (fun i v ->
            xs.{i} <- Int32.of_int (v mod side);
            ys.{i} <- Int32.of_int (v / side))
          starts;
        (xs, ys)
      in
      let nodes (xs, ys) =
        Array.init n (fun i ->
            (Int32.to_int ys.{i} * side) + Int32.to_int xs.{i})
      in
      let r_step = streams () and r_inplace = streams () and r_all = streams () in
      let by_step = Array.copy starts in
      let ((xs_i, ys_i) as inplace) = load () in
      let ((xs_a, ys_a) as all) = load () in
      for _ = 1 to rounds do
        for i = 0 to n - 1 do
          by_step.(i) <- Walk.step grid kernel r_step.(i) by_step.(i);
          Walk.step_inplace grid kernel r_inplace.(i) ~xs:xs_i ~ys:ys_i i
        done;
        Walk.move_all grid kernel r_all ~xs:xs_a ~ys:ys_a ~n
      done;
      let fps r = Array.map Prng.fingerprint r in
      by_step = nodes inplace
      && by_step = nodes all
      && fps r_step = fps r_inplace
      && fps r_step = fps r_all)

(* --- torus --- *)

let test_torus_walk_valid () =
  let grid = Grid.create ~topology:Grid.Torus ~side:6 () in
  let rng = Prng.of_seed 43 in
  List.iter
    (fun kernel ->
      for v = 0 to Grid.nodes grid - 1 do
        for _ = 1 to 10 do
          let u = Walk.step grid kernel rng v in
          Alcotest.(check bool) "valid node" true (u >= 0 && u < 36);
          Alcotest.(check bool) "unit wrap move" true
            (Grid.manhattan grid v u <= 1)
        done
      done)
    kernels

let test_torus_simple_walk_uniform () =
  (* the torus is vertex-transitive: even the plain SRW is
     uniform-stationary there, unlike on the bounded grid *)
  let side = 6 in
  let grid = Grid.create ~topology:Grid.Torus ~side () in
  let rng = Prng.of_seed 47 in
  let walkers = 30_000 in
  let counts = Array.make (Grid.nodes grid) 0 in
  for _ = 1 to walkers do
    let start = Grid.random_node grid rng in
    let finish = Walk.advance grid Walk.Simple rng start ~steps:31 in
    counts.(finish) <- counts.(finish) + 1
  done;
  Alcotest.(check bool) "uniform by chi-square" true
    (Stats.Chi_square.test_uniform ~counts ~confidence:0.999)

let test_torus_lazy_moves_four_fifths () =
  (* no border: the lazy walk moves with probability exactly 4/5 *)
  let grid = Grid.create ~topology:Grid.Torus ~side:5 () in
  let rng = Prng.of_seed 53 in
  let moves = ref 0 in
  let trials = 50_000 in
  let v = 7 in
  for _ = 1 to trials do
    if Walk.step grid Walk.Lazy_one_fifth rng v <> v then incr moves
  done;
  let freq = float_of_int !moves /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "move rate %.3f near 0.8" freq)
    true
    (Float.abs (freq -. 0.8) < 0.01)

let () =
  Alcotest.run "walk"
    [
      ( "kernels",
        [
          Alcotest.test_case "step stays on grid" `Quick
            test_step_stays_on_grid;
          Alcotest.test_case "simple never stays" `Quick
            test_simple_never_stays;
          Alcotest.test_case "lazy can stay" `Quick test_lazy_can_stay;
          Alcotest.test_case "lazy 1/5 interior rates" `Slow
            test_lazy_one_fifth_rates;
          Alcotest.test_case "lazy 1/5 boundary rates" `Slow
            test_lazy_one_fifth_boundary_rates;
          Alcotest.test_case "kernel names" `Quick test_kernel_to_string;
        ] );
      ( "stationarity",
        [
          Alcotest.test_case "lazy walk keeps uniform law" `Slow
            test_uniform_stationarity;
          Alcotest.test_case "simple walk is degree-biased" `Slow
            test_simple_walk_not_uniform;
        ] );
      ( "trajectories",
        [
          Alcotest.test_case "advance and path" `Quick test_advance_and_path;
          Alcotest.test_case "excursion stats" `Quick test_excursion_stats;
          Alcotest.test_case "excursion = path recomputation" `Quick
            test_excursion_consistency_with_path;
        ] );
      ( "meetings",
        [
          Alcotest.test_case "hits_within" `Quick test_hits_within;
          Alcotest.test_case "first_meeting" `Quick test_first_meeting;
          Alcotest.test_case "meeting disk" `Quick test_meeting_disk;
        ] );
      ( "torus",
        [
          Alcotest.test_case "steps valid" `Quick test_torus_walk_valid;
          Alcotest.test_case "SRW uniform on torus" `Slow
            test_torus_simple_walk_uniform;
          Alcotest.test_case "lazy move rate 4/5" `Slow
            test_torus_lazy_moves_four_fifths;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_path_valid; prop_excursion_range_bounds;
            prop_scalar_walks_match_oracle; prop_entry_points_agree ] );
    ]
