(* Tests for the generic engine layers introduced by the Space/Exchange/
   Engine refactor: cross-engine equivalence (the satellites are now
   instances of one engine, so engines that model the same process must
   produce identical runs), degenerate parameter values at the space
   level, and unit tests of each exchange policy on hand-built
   visibility graphs. *)

module Config = Mobile_network.Config
module Engine = Mobile_network.Engine
module Simulation = Mobile_network.Simulation
module Exchange = Mobile_network.Exchange
module Rumor_set = Mobile_network.Rumor_set
module Space = Mobile_network.Space
module Clementi = Baselines.Clementi
module Barrier_sim = Barriers.Barrier_sim

(* --- cross-engine equivalence --------------------------------------------- *)

(* The Clementi baseline is by construction the grid engine with the
   jump kernel and single-hop exchange; running the same parameters
   through the core Simulation front end must give the identical run
   (same streams, same draw order, same exchange rule). *)
let test_clementi_equals_grid_engine () =
  let side = 24 and agents = 40 and big_r = 3 and rho = 2 in
  let seed = 5 and trial = 2 and max_steps = 5_000 in
  let c =
    Clementi.broadcast
      { Clementi.side; agents; big_r; rho; seed; trial; max_steps }
  in
  let s =
    Simulation.run_config
      (Config.make ~side ~agents ~radius:big_r ~kernel:(Walk.Jump rho)
         ~exchange:Config.Single_hop ~seed ~trial ~max_steps ())
  in
  Alcotest.(check int) "same steps" c.Engine.steps s.Engine.steps;
  Alcotest.(check int) "same informed" c.Engine.informed s.Engine.informed;
  Alcotest.(check bool) "same outcome" true
    (match (c.Engine.outcome, s.Engine.outcome) with
    | Engine.Completed, Engine.Completed | Engine.Timed_out, Engine.Timed_out
      ->
        true
    | _ -> false)

let stride1_series () =
  Obs.Series.create ~capacity:max_int
    ~columns:Mobile_network.Engine.series_columns ()

(* Attaching a series is pure observation in every satellite: the
   recorded run agrees with the plain one, and its series holds steps + 1
   rows (row 0 is the initial state) ending at the final informed
   count. *)
let test_recorded_run_agrees_with_broadcast () =
  let check label ~steps ~informed ~steps' ~informed' sr =
    Alcotest.(check int) (label ^ " steps") steps steps';
    Alcotest.(check int) (label ^ " informed") informed informed';
    Alcotest.(check int) (label ^ " rows") (steps + 1) (Obs.Series.rows sr);
    let col = Obs.Series.column sr "informed" in
    Alcotest.(check int)
      (label ^ " final informed row")
      informed
      col.(Array.length col - 1)
  in
  let ccfg =
    { Clementi.side = 16; agents = 24; big_r = 2; rho = 2; seed = 3;
      trial = 1; max_steps = 2_000 }
  in
  let sr = stride1_series () in
  let cb = Clementi.broadcast ccfg and cr = Clementi.broadcast ~series:sr ccfg in
  check "clementi" ~steps:cb.Engine.steps ~informed:cb.Engine.informed
    ~steps':cr.Engine.steps ~informed':cr.Engine.informed sr;
  let ucfg =
    { Continuum.box_side = 8.; agents = 32; radius = 1.; sigma = 0.25;
      seed = 3; trial = 1; max_steps = 50_000 }
  in
  let sr = stride1_series () in
  let ub = Continuum.broadcast ucfg
  and ur = Continuum.broadcast ~series:sr ucfg in
  check "continuum" ~steps:ub.Engine.steps ~informed:ub.Engine.informed
    ~steps':ur.Engine.steps ~informed':ur.Engine.informed sr;
  let domain = Barriers.Domain.central_wall (Grid.create ~side:16 ()) ~gap:2 in
  let bcfg =
    { Barrier_sim.domain; agents = 12; radius = 0; los_blocking = false;
      seed = 3; trial = 1; max_steps = 20_000 }
  in
  let sr = stride1_series () in
  let bb = Barrier_sim.broadcast bcfg
  and br = Barrier_sim.broadcast ~series:sr bcfg in
  check "barrier" ~steps:bb.Engine.steps
    ~informed:bb.Engine.informed ~steps':br.Engine.steps
    ~informed':br.Engine.informed sr

(* A stride-1 series is the run's per-step record: steps + 1 rows whose
   trajectory columns equal what [on_step] observes through the engine
   getters, on every space instance. *)
module Series_vs_on_step (S : Space.S) = struct
  module E = Mobile_network.Engine.Make (S)

  let check label ~space spec =
    let sr = stride1_series () in
    let e = E.create ~series:sr ~space spec in
    let seen = ref [] in
    let observe e =
      seen :=
        [| E.informed_count e; E.frontier_x e; E.max_island e;
           E.covered_count e |]
        :: !seen
    in
    observe e;
    let r = E.run ~on_step:observe e in
    let seen = Array.of_list (List.rev !seen) in
    Alcotest.(check int) (label ^ ": rows = steps + 1") (r.steps + 1)
      (Obs.Series.rows sr);
    List.iteri
      (fun i name ->
        Alcotest.(check (array int))
          (Printf.sprintf "%s: %s column = on_step" label name)
          (Array.map (fun obs -> obs.(i)) seen)
          (Obs.Series.column sr name))
      [ "informed"; "frontier"; "max_island"; "covered" ]
end

let test_stride1_series_equals_on_step () =
  let module Engine = Mobile_network.Engine in
  let module G = Series_vs_on_step (Mobile_network.Grid_space) in
  let grid = Grid.create ~side:12 () in
  G.check "grid"
    ~space:
      (Mobile_network.Grid_space.create grid ~kernel:Walk.Lazy_one_fifth
         ~radius:1)
    { (Engine.default_spec ~agents:10 ~seed:1 ~trial:0 ~max_steps:5_000) with
      Engine.protocol = Mobile_network.Protocol.Broadcast_cover };
  G.check "clementi"
    ~space:
      (Mobile_network.Grid_space.create grid ~kernel:(Walk.Jump 2) ~radius:2)
    { (Engine.default_spec ~agents:24 ~seed:1 ~trial:0 ~max_steps:2_000) with
      Engine.exchange = Exchange.Single_hop;
      track_islands = false };
  let module C = Series_vs_on_step (Continuum.Space) in
  C.check "continuum"
    ~space:(Continuum.Space.create ~box_side:8. ~radius:1. ~sigma:0.25 ~agents:32)
    (Engine.default_spec ~agents:32 ~seed:1 ~trial:0 ~max_steps:50_000);
  let module B = Series_vs_on_step (Barriers.Domain_space) in
  B.check "barrier"
    ~space:
      (Barriers.Domain_space.create
         (Barriers.Domain.central_wall (Grid.create ~side:16 ()) ~gap:2)
         ~radius:0 ~los_blocking:false)
    (Engine.default_spec ~agents:12 ~seed:1 ~trial:0 ~max_steps:20_000)

(* --- pair-set oracle ------------------------------------------------------- *)

(* Each space's [iter_close_pairs] against the O(k^2) scan of its own
   distance rule: the same set of unordered pairs, each exactly once.
   The index is loaded four times over a few moves (so every rebuild but
   the first reuses the previous one's state, as in a run), the third
   time under a churn mask. *)
module Pair_oracle (S : Space.S) = struct
  let holds space ~n ~seed ~close =
    let pos = S.init_positions space (Prng.of_seed seed) ~n in
    let rngs = Array.init n (fun i -> Prng.of_seed (seed + i + 1)) in
    List.for_all
      (fun step ->
        if step > 0 then S.move_all space pos rngs Space.Mobile_all;
        let present =
          if step = 2 then Some (Array.init n (fun i -> i mod 3 <> 1)) else None
        in
        let indexed i = match present with None -> true | Some p -> p.(i) in
        S.rebuild_index ?present space pos;
        let got = ref [] in
        S.iter_close_pairs space ~f:(fun i j ->
            got := (min i j, max i j) :: !got);
        let expected = ref [] in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            if indexed i && indexed j && close pos i j then
              expected := (i, j) :: !expected
          done
        done;
        List.sort compare !got = List.sort compare !expected)
      [ 0; 1; 2; 3 ]
end

let prop_grid_pairs =
  let module O = Pair_oracle (Mobile_network.Grid_space) in
  QCheck.Test.make ~name:"grid pairs = brute force" ~count:150
    QCheck.(
      pair
        (quad (int_range 3 14) (int_range 1 30) (int_range 0 6) bool)
        (pair small_int bool))
    (fun ((side, n, radius, torus), (seed, jump)) ->
      let grid =
        Grid.create
          ~topology:(if torus then Grid.Torus else Grid.Bounded)
          ~side ()
      in
      let kernel = if jump then Walk.Jump 2 else Walk.Lazy_one_fifth in
      O.holds
        (Mobile_network.Grid_space.create grid ~kernel ~radius)
        ~n ~seed
        ~close:(fun pos i j ->
          Grid.manhattan grid
            (Mobile_network.Grid_space.node_at pos i)
            (Mobile_network.Grid_space.node_at pos j)
          <= radius))

let prop_continuum_pairs =
  let module S = Continuum.Space in
  let module O = Pair_oracle (S) in
  QCheck.Test.make ~name:"continuum pairs = brute force" ~count:150
    QCheck.(
      quad (float_range 1. 12.) (int_range 1 30) (float_range 0. 4.) small_int)
    (fun (box_side, n, radius, seed) ->
      O.holds
        (S.create ~box_side ~radius ~sigma:(box_side /. 8.) ~agents:n)
        ~n ~seed
        ~close:(fun pos i j ->
          (* a zero radius has no edges, even between coinciding agents *)
          let dx = pos.S.xs.(i) -. pos.S.xs.(j)
          and dy = pos.S.ys.(i) -. pos.S.ys.(j) in
          radius > 0. && (dx *. dx) +. (dy *. dy) <= radius *. radius))

let prop_domain_pairs =
  let module O = Pair_oracle (Barriers.Domain_space) in
  QCheck.Test.make ~name:"domain pairs = brute force" ~count:150
    QCheck.(
      pair
        (quad (int_range 4 14) (int_range 1 30) (int_range 0 6) small_int)
        (pair bool bool))
    (fun ((side, n, radius, seed), (wall, los_blocking)) ->
      let grid = Grid.create ~side () in
      let domain =
        if wall then Barriers.Domain.central_wall grid ~gap:1
        else Barriers.Domain.unobstructed grid
      in
      O.holds
        (Barriers.Domain_space.create domain ~radius ~los_blocking)
        ~n ~seed
        ~close:(fun pos i j ->
          Grid.manhattan grid pos.(i) pos.(j) <= radius
          && ((not los_blocking)
             || Barriers.Domain.line_of_sight domain pos.(i) pos.(j))))

(* --- degenerate parameters ------------------------------------------------ *)

let test_jump_zero_is_identity () =
  let grid = Grid.create ~side:8 () in
  let rng = Prng.of_seed 9 and witness = Prng.of_seed 9 in
  let v = Grid.index grid ~x:3 ~y:4 in
  Alcotest.(check int) "stays put" v (Walk.step grid (Walk.Jump 0) rng v);
  (* rho = 0 must also consume no randomness *)
  Alcotest.(check int) "no draws" (Prng.int witness 1_000_000)
    (Prng.int rng 1_000_000)

let test_static_disconnected_times_out () =
  (* rho = 0 and R = 0: nobody moves, nobody meets — the run must time
     out with only the source informed *)
  let r =
    Clementi.broadcast
      { Clementi.side = 8; agents = 6; big_r = 0; rho = 0; seed = 2;
        trial = 0; max_steps = 50 }
  in
  Alcotest.(check bool) "timed out" true
    (match r.Engine.outcome with
    | Engine.Timed_out -> true
    | Engine.Completed -> false);
  Alcotest.(check int) "only the source" 1 r.Engine.informed

let test_full_radius_instant () =
  (* R covering the whole grid: the time-0 exchange already floods *)
  let r =
    Clementi.broadcast
      { Clementi.side = 8; agents = 6; big_r = 16; rho = 0; seed = 2;
        trial = 0; max_steps = 50 }
  in
  Alcotest.(check int) "instant" 0 r.Engine.steps;
  Alcotest.(check int) "everyone informed" 6 r.Engine.informed

let test_continuum_zero_radius_no_pairs () =
  let module S = Continuum.Space in
  let s = S.create ~box_side:4. ~radius:0. ~sigma:0.25 ~agents:8 in
  let pos = S.init_positions s (Prng.of_seed 1) ~n:8 in
  S.rebuild_index s pos;
  let pairs = ref 0 in
  S.iter_close_pairs s ~f:(fun _ _ -> incr pairs);
  Alcotest.(check int) "no visibility edges at radius 0" 0 !pairs

let test_continuum_zero_sigma_is_static () =
  let module S = Continuum.Space in
  let s = S.create ~box_side:4. ~radius:1. ~sigma:0. ~agents:8 in
  let pos = S.init_positions s (Prng.of_seed 1) ~n:8 in
  let xs0 = Array.copy pos.S.xs and ys0 = Array.copy pos.S.ys in
  let rngs = Array.init 8 (fun i -> Prng.of_seed i) in
  S.move_all s pos rngs Space.Mobile_all;
  Alcotest.(check bool) "positions unchanged" true
    (pos.S.xs = xs0 && pos.S.ys = ys0)

(* --- exchange policies on hand-built graphs ------------------------------- *)

let test_flood_single () =
  let informed = [| true; false; false; false; false |] in
  let x = Exchange.create ~population:5 ~predators:0 ~informed ~rumors:[||] in
  x.Exchange.informed_count <- 1;
  (* components {0, 1, 2} and {3, 4}; only the first holds the rumor *)
  let dsu = Dsu.create 5 in
  ignore (Dsu.union dsu 0 1);
  ignore (Dsu.union dsu 1 2);
  ignore (Dsu.union dsu 3 4);
  Exchange.flood_single x ~dsu;
  Alcotest.(check (array bool)) "informed component floods"
    [| true; true; true; false; false |]
    informed;
  Alcotest.(check int) "count tracked" 3 x.Exchange.informed_count

let test_flood_gossip () =
  let population = 4 in
  let rumors =
    Array.init population (fun i -> Rumor_set.singleton ~capacity:population i)
  in
  let informed = Array.init population (fun i -> i = 0) in
  let x = Exchange.create ~population ~predators:0 ~informed ~rumors in
  x.Exchange.informed_count <- 1;
  x.Exchange.total_known <- population;
  (* component {0, 1, 2}; agent 3 is isolated *)
  let dsu = Dsu.create population in
  ignore (Dsu.union dsu 0 1);
  ignore (Dsu.union dsu 1 2);
  Exchange.flood_gossip x ~dsu;
  Array.iteri
    (fun i s ->
      let expected = if i < 3 then 3 else 1 in
      Alcotest.(check int)
        (Printf.sprintf "agent %d cardinal" i)
        expected (Rumor_set.cardinal s))
    rumors;
  Alcotest.(check int) "total known" 10 x.Exchange.total_known;
  (* rumor-0 tracking: agents 1 and 2 learned rumor 0 *)
  Alcotest.(check int) "informed count" 3 x.Exchange.informed_count

let test_single_hop_no_chaining () =
  (* path 0 - 1 - 2 with only agent 0 informed: the rumor crosses one
     edge per step, so agent 2 must NOT learn it this step *)
  let informed = [| true; false; false |] in
  let x = Exchange.create ~population:3 ~predators:0 ~informed ~rumors:[||] in
  x.Exchange.informed_count <- 1;
  let iter_pairs f =
    f 0 1;
    f 1 2
  in
  Exchange.single_hop_single x ~iter_pairs;
  Alcotest.(check (array bool)) "one hop only" [| true; true; false |] informed;
  Alcotest.(check int) "count" 2 x.Exchange.informed_count;
  (* the next step carries it the rest of the way *)
  Exchange.single_hop_single x ~iter_pairs;
  Alcotest.(check (array bool)) "second hop" [| true; true; true |] informed

let test_single_hop_gossip_pre_step_snapshots () =
  let population = 3 in
  let rumors =
    Array.init population (fun i -> Rumor_set.singleton ~capacity:population i)
  in
  let informed = Array.init population (fun i -> i = 0) in
  let x = Exchange.create ~population ~predators:0 ~informed ~rumors in
  x.Exchange.informed_count <- 1;
  x.Exchange.total_known <- population;
  let iter_pairs f =
    f 0 1;
    f 1 2
  in
  Exchange.single_hop_gossip x ~iter_pairs;
  (* all deliveries read pre-step sets: 1 hears from both neighbours,
     but 0 and 2 only hear 1's original singleton *)
  Alcotest.(check int) "agent 0" 2 (Rumor_set.cardinal rumors.(0));
  Alcotest.(check int) "agent 1" 3 (Rumor_set.cardinal rumors.(1));
  Alcotest.(check int) "agent 2" 2 (Rumor_set.cardinal rumors.(2));
  Alcotest.(check bool) "2 did not get rumor 0 through 1" false
    (Rumor_set.mem rumors.(2) 0);
  Alcotest.(check int) "total known" 7 x.Exchange.total_known;
  Alcotest.(check int) "rumor-0 informed" 2 x.Exchange.informed_count

let test_catch_preys_no_chaining () =
  (* predator 0; preys 1, 2. Edges 0-1 and 1-2: prey 1 is caught by
     direct contact, prey 2 survives (catching never chains) *)
  let informed = [| true; false; false |] in
  let x = Exchange.create ~population:3 ~predators:1 ~informed ~rumors:[||] in
  x.Exchange.informed_count <- 1;
  x.Exchange.live_preys <- 2;
  let iter_pairs f =
    f 0 1;
    f 1 2
  in
  Exchange.catch_preys x ~iter_pairs;
  Alcotest.(check (array bool)) "direct catch only" [| true; true; false |]
    informed;
  Alcotest.(check int) "one prey left" 1 x.Exchange.live_preys;
  (* idempotent on an already-caught prey *)
  Exchange.catch_preys x ~iter_pairs;
  Alcotest.(check int) "no double catch" 1 x.Exchange.live_preys

let () =
  Alcotest.run "engine"
    [
      ( "cross-engine",
        [
          Alcotest.test_case "clementi = grid engine with jump kernel" `Quick
            test_clementi_equals_grid_engine;
          Alcotest.test_case "recorded run agrees with broadcast" `Quick
            test_recorded_run_agrees_with_broadcast;
          Alcotest.test_case "stride-1 series = on_step" `Quick
            test_stride1_series_equals_on_step;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "jump rho=0 is identity" `Quick
            test_jump_zero_is_identity;
          Alcotest.test_case "static disconnected times out" `Quick
            test_static_disconnected_times_out;
          Alcotest.test_case "full radius instant" `Quick
            test_full_radius_instant;
          Alcotest.test_case "continuum radius=0 has no pairs" `Quick
            test_continuum_zero_radius_no_pairs;
          Alcotest.test_case "continuum sigma=0 is static" `Quick
            test_continuum_zero_sigma_is_static;
        ] );
      ( "oracles",
        List.map QCheck_alcotest.to_alcotest
          [ prop_grid_pairs; prop_continuum_pairs; prop_domain_pairs ] );
      ( "policies",
        [
          Alcotest.test_case "flood_single" `Quick test_flood_single;
          Alcotest.test_case "flood_gossip" `Quick test_flood_gossip;
          Alcotest.test_case "single_hop no chaining" `Quick
            test_single_hop_no_chaining;
          Alcotest.test_case "single_hop_gossip snapshots" `Quick
            test_single_hop_gossip_pre_step_snapshots;
          Alcotest.test_case "catch_preys no chaining" `Quick
            test_catch_preys_no_chaining;
        ] );
    ]
