(* Integration tests for the simulation engine: protocol semantics,
   invariants along runs, determinism, and edge cases. *)

module Config = Mobile_network.Config
module Protocol = Mobile_network.Protocol
module Simulation = Mobile_network.Simulation
module Grid_engine = Mobile_network.Engine.Make (Mobile_network.Grid_space)
module Series = Obs.Series

(* Distinct rumors a gossip agent knows. *)
let rumors_known sim i =
  Mobile_network.Rumor_set.cardinal (Grid_engine.rumors sim).(i)

let run ?source ?max_steps ?(seed = 0) ?(trial = 0) ?(radius = 0) ~side ~agents
    protocol =
  let cfg =
    Config.make ~side ~agents ~radius ~protocol ~seed ~trial ?source
      ?max_steps ()
  in
  Simulation.run_config cfg

(* A run with an exact stride-1 series attached (its capacity exceeds
   any run here): the report and a column reader, index [i] of a column
   being the state after step [i]. *)
let run_series cfg =
  let sr =
    Series.create ~capacity:max_int
      ~columns:Mobile_network.Engine.series_columns ()
  in
  let report = Simulation.run_config ~series:sr cfg in
  (report, Series.column sr)

let completed (r : Simulation.report) =
  match r.Simulation.outcome with
  | Simulation.Completed -> true
  | Simulation.Timed_out -> false

(* --- broadcast --- *)

let test_broadcast_completes_all_informed () =
  let r = run ~side:16 ~agents:8 Protocol.Broadcast in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "all informed" 8 r.Simulation.informed;
  Alcotest.(check bool) "took time" true (r.Simulation.steps > 0)

let test_broadcast_single_agent_instant () =
  let r = run ~side:16 ~agents:1 Protocol.Broadcast in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "zero steps" 0 r.Simulation.steps

let test_broadcast_full_radius_instant () =
  (* radius >= diameter: the visibility graph is complete at t = 0 *)
  let r = run ~side:8 ~agents:5 ~radius:14 Protocol.Broadcast in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "instant flood" 0 r.Simulation.steps

let test_broadcast_explicit_source () =
  let cfg = Config.make ~side:12 ~agents:6 ~source:4 () in
  let sim = Simulation.create cfg in
  Alcotest.(check (option int)) "source recorded" (Some 4)
    (Simulation.source sim);
  Alcotest.(check bool) "source informed at t0" true
    (Simulation.is_informed sim 4)

let test_broadcast_deterministic () =
  let cfg = Config.make ~side:16 ~agents:8 ~seed:3 ~trial:5 () in
  let a, ca = run_series cfg and b, cb = run_series cfg in
  Alcotest.(check int) "same steps" a.Simulation.steps b.Simulation.steps;
  Alcotest.(check (array int)) "same informed series" (ca "informed")
    (cb "informed");
  Alcotest.(check (array int)) "same frontier series" (ca "frontier")
    (cb "frontier")

let test_trials_differ () =
  let steps trial =
    (run ~side:16 ~agents:8 ~seed:3 ~trial Protocol.Broadcast).Simulation.steps
  in
  let all = List.init 6 steps in
  Alcotest.(check bool) "not all trials identical" true
    (List.exists (fun s -> s <> List.hd all) (List.tl all))

let test_informed_monotone_and_bounded () =
  let r, column = run_series (Config.make ~side:16 ~agents:10 ()) in
  let series = column "informed" in
  Alcotest.(check int) "series length = steps + 1"
    (r.Simulation.steps + 1) (Array.length series);
  Alcotest.(check int) "starts with one informed" 1 series.(0);
  Alcotest.(check int) "ends all informed" 10 series.(Array.length series - 1);
  for i = 1 to Array.length series - 1 do
    Alcotest.(check bool) "monotone" true (series.(i) >= series.(i - 1));
    Alcotest.(check bool) "bounded" true (series.(i) <= 10)
  done

let test_frontier_monotone_and_bounded () =
  let side = 16 in
  let _, column = run_series (Config.make ~side ~agents:10 ()) in
  let series = column "frontier" in
  for i = 0 to Array.length series - 1 do
    Alcotest.(check bool) "within grid" true
      (series.(i) >= 0 && series.(i) < side);
    if i > 0 then
      Alcotest.(check bool) "monotone" true (series.(i) >= series.(i - 1))
  done

let test_timeout () =
  let r = run ~side:32 ~agents:4 ~max_steps:3 Protocol.Broadcast in
  Alcotest.(check bool) "timed out" false (completed r);
  Alcotest.(check int) "stopped at cap" 3 r.Simulation.steps;
  Alcotest.(check bool) "not everyone informed" true (r.Simulation.informed < 4)

let test_zero_cap_reports_initial_state () =
  let r = run ~side:32 ~agents:4 ~max_steps:0 Protocol.Broadcast in
  Alcotest.(check int) "no steps" 0 r.Simulation.steps;
  Alcotest.(check bool) "at least source informed" true
    (r.Simulation.informed >= 1)

let test_invalid_config_raises () =
  Alcotest.check_raises "invalid"
    (Invalid_argument "Simulation.create: side must be positive") (fun () ->
      ignore (Simulation.create (Config.make ~side:0 ~agents:1 ())))

let test_step_after_done_is_noop () =
  let sim = Simulation.create (Config.make ~side:8 ~agents:1 ()) in
  Alcotest.(check bool) "done at t0" true (Grid_engine.is_done sim);
  Simulation.step sim;
  Alcotest.(check int) "time unchanged" 0 (Simulation.time sim)

let test_radius_speeds_broadcast () =
  (* median over trials: r = 6 cannot be slower than r = 0 by much; in
     practice it is several times faster *)
  let median radius =
    let times =
      Array.init 7 (fun trial ->
          float_of_int
            (run ~side:24 ~agents:12 ~radius ~trial Protocol.Broadcast)
              .Simulation.steps)
    in
    Array.sort compare times;
    times.(3)
  in
  let t0 = median 0 and t6 = median 6 in
  Alcotest.(check bool)
    (Printf.sprintf "r=6 (%.0f) faster than r=0 (%.0f)" t6 t0)
    true (t6 < t0)

(* --- gossip --- *)

let test_gossip_everyone_knows_everything () =
  let cfg = Config.make ~side:12 ~agents:6 ~protocol:Protocol.Gossip () in
  let sim = Simulation.create cfg in
  let r = Simulation.run sim in
  Alcotest.(check bool) "completed" true (completed r);
  for i = 0 to 5 do
    Alcotest.(check int)
      (Printf.sprintf "agent %d knows all" i)
      6
      (rumors_known sim i)
  done

let test_gossip_initial_knowledge () =
  let cfg = Config.make ~side:20 ~agents:5 ~protocol:Protocol.Gossip ~max_steps:0 () in
  let sim = Simulation.create cfg in
  (* after the t0 exchange every agent knows at least its own rumor *)
  for i = 0 to 4 do
    Alcotest.(check bool) "knows at least own rumor" true
      (rumors_known sim i >= 1)
  done

(* --- frog --- *)

let test_frog_completes () =
  let r = run ~side:12 ~agents:6 Protocol.Frog in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "all informed" 6 r.Simulation.informed

let test_frog_uninformed_agents_frozen () =
  let cfg = Config.make ~side:24 ~agents:8 ~protocol:Protocol.Frog ~seed:2 () in
  let sim = Simulation.create cfg in
  (* record initial positions; every still-uninformed agent must sit at
     its initial node at all times *)
  let initial = Simulation.positions sim in
  let violations = ref 0 in
  let steps = ref 0 in
  while (not (Grid_engine.is_done sim)) && !steps < 2000 do
    Simulation.step sim;
    incr steps;
    for i = 0 to 7 do
      if
        (not (Simulation.is_informed sim i))
        && Simulation.position sim i <> initial.(i)
      then incr violations
    done
  done;
  Alcotest.(check int) "uninformed agents never moved" 0 !violations

(* --- coverage protocols --- *)

let test_cover_walks_covers_grid () =
  let side = 10 in
  let cfg =
    Config.make ~side ~agents:4 ~protocol:Protocol.Cover_walks () in
  let sim = Simulation.create cfg in
  let r = Simulation.run sim in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "every node covered" (side * side)
    r.Simulation.covered

let test_cover_walks_initial_positions_covered () =
  let cfg =
    Config.make ~side:10 ~agents:4 ~protocol:Protocol.Cover_walks ~max_steps:0
      ()
  in
  let sim = Simulation.create cfg in
  Alcotest.(check bool) "initial positions already counted" true
    (Simulation.covered_count sim >= 1)

let test_broadcast_cover_subsumes_broadcast () =
  let side = 10 in
  let r = run ~side ~agents:5 Protocol.Broadcast_cover in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "grid covered" (side * side) r.Simulation.covered;
  Alcotest.(check int) "everyone informed on the way" 5 r.Simulation.informed

let test_coverage_monotone () =
  let _, column =
    run_series (Config.make ~side:10 ~agents:4 ~protocol:Protocol.Cover_walks ())
  in
  let series = column "covered" in
  for i = 1 to Array.length series - 1 do
    Alcotest.(check bool) "covered monotone" true (series.(i) >= series.(i - 1))
  done

(* --- predator-prey --- *)

let test_predator_prey_extinction () =
  let cfg =
    Config.make ~side:10 ~agents:4
      ~protocol:(Protocol.Predator_prey { preys = 6 })
      ()
  in
  let sim = Simulation.create cfg in
  Alcotest.(check int) "population includes preys" 10
    (Simulation.population sim);
  (* the t = 0 exchange may already catch preys that start on a
     predator's node *)
  Alcotest.(check bool) "initial live preys within [0, 6]" true
    (Grid_engine.live_preys sim >= 0 && Grid_engine.live_preys sim <= 6);
  let r = Simulation.run sim in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "no prey left" 0 (Grid_engine.live_preys sim);
  Alcotest.(check int) "everyone caught or predator" 10 r.Simulation.informed

let test_predator_prey_no_preys_instant () =
  let r =
    run ~side:10 ~agents:3 (Protocol.Predator_prey { preys = 0 })
  in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "instant" 0 r.Simulation.steps

let test_predator_prey_live_preys_monotone () =
  let cfg =
    Config.make ~side:12 ~agents:3
      ~protocol:(Protocol.Predator_prey { preys = 5 })
      ()
  in
  let sim = Simulation.create cfg in
  let prev = ref (Grid_engine.live_preys sim) in
  let steps = ref 0 in
  while (not (Grid_engine.is_done sim)) && !steps < 50_000 do
    Simulation.step sim;
    incr steps;
    let now = Grid_engine.live_preys sim in
    Alcotest.(check bool) "monotone decrease" true (now <= !prev);
    prev := now
  done;
  Alcotest.(check int) "extinct" 0 !prev

let test_predator_prey_no_chaining () =
  (* preys never transmit: with radius 0 and a single predator placed by
     seed, a prey adjacent to another prey is not "caught through" it.
     We verify semantics structurally: catching requires a predator id. *)
  let cfg =
    Config.make ~side:6 ~agents:1
      ~protocol:(Protocol.Predator_prey { preys = 4 })
      ~seed:11 ()
  in
  let sim = Simulation.create cfg in
  (* at t0 some preys may cohabit; none may be caught unless they share
     the predator's node *)
  let predator_pos = Simulation.position sim 0 in
  for i = 1 to 4 do
    if Simulation.is_informed sim i then
      Alcotest.(check int)
        (Printf.sprintf "caught prey %d is at the predator's node" i)
        predator_pos (Simulation.position sim i)
  done

(* --- exchange rules and multiple sources --- *)

let test_single_hop_completes () =
  let cfg =
    Config.make ~side:12 ~agents:6 ~exchange:Config.Single_hop ~seed:1 ()
  in
  let r = Simulation.run_config cfg in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "all informed" 6 r.Simulation.informed

let test_single_hop_no_transitive_jump () =
  (* identical (seed, trial) pairs give identical placements and the
     same source, so the t0 informed counts are directly comparable:
     flooding reaches whole components, single-hop only direct
     neighbours — flood >= hop always, and on a crowded 4x4 grid with
     radius 3 the strict gap shows up in some trial *)
  let informed_at_t0 exchange trial =
    Simulation.informed_count
      (Simulation.create
         (Config.make ~side:4 ~agents:12 ~radius:3 ~exchange ~seed:3 ~trial
            ~max_steps:0 ()))
  in
  let strict_gap = ref false in
  for trial = 0 to 9 do
    let flood = informed_at_t0 Config.Flood_component trial in
    let hop = informed_at_t0 Config.Single_hop trial in
    Alcotest.(check bool) "flood >= single-hop at t0" true (flood >= hop);
    if flood > hop then strict_gap := true
  done;
  Alcotest.(check bool) "flooding strictly beats one hop somewhere" true
    !strict_gap

let test_single_hop_slower_above_percolation () =
  (* above the percolation point the giant component makes flooding
     near-instant while single-hop still pays graph-distance hops *)
  let time exchange trial =
    let cfg =
      Config.make ~side:24 ~agents:48 ~radius:8 ~exchange ~seed:5 ~trial ()
    in
    (Simulation.run_config cfg).Simulation.steps
  in
  let total_flood = ref 0 and total_hop = ref 0 in
  for trial = 0 to 4 do
    total_flood := !total_flood + time Config.Flood_component trial;
    total_hop := !total_hop + time Config.Single_hop trial
  done;
  Alcotest.(check bool)
    (Printf.sprintf "single-hop (%d) slower than flood (%d)" !total_hop
       !total_flood)
    true
    (!total_hop > !total_flood)

let test_single_hop_gossip_completes () =
  let cfg =
    Config.make ~side:10 ~agents:5 ~protocol:Protocol.Gossip
      ~exchange:Config.Single_hop ~seed:2 ()
  in
  let sim = Simulation.create cfg in
  let r = Simulation.run sim in
  Alcotest.(check bool) "completed" true (completed r);
  for i = 0 to 4 do
    Alcotest.(check int) "knows all" 5 (rumors_known sim i)
  done

let test_flood_dominates_single_hop_stepwise () =
  (* same (seed, trial) => identical placements and identical per-agent
     movement streams (movement draws do not depend on informed state
     for Broadcast), so the two exchange rules see the same trajectories
     and flooding's informed set must contain single-hop's at every
     step *)
  let mk exchange =
    Simulation.create
      (Config.make ~side:12 ~agents:10 ~radius:2 ~exchange ~seed:9
         ~max_steps:max_int ())
  in
  let flood = mk Config.Flood_component in
  let hop = mk Config.Single_hop in
  let steps = ref 0 in
  let ok = ref true in
  while (not (Grid_engine.is_done hop)) && !steps < 3000 do
    (* positions agree exactly while both runs are still live (a
       finished simulation freezes, so skip the check once flooding
       completes) *)
    if
      (not (Grid_engine.is_done flood))
      && Simulation.positions flood <> Simulation.positions hop
    then ok := false;
    if Simulation.informed_count flood < Simulation.informed_count hop then
      ok := false;
    for i = 0 to 9 do
      if Simulation.is_informed hop i && not (Simulation.is_informed flood i)
      then ok := false
    done;
    Simulation.step flood;
    Simulation.step hop;
    incr steps
  done;
  Alcotest.(check bool) "flood dominates single-hop pointwise" true !ok

let test_multiple_sources () =
  let cfg = Config.make ~side:20 ~agents:10 ~sources:4 ~max_steps:0 () in
  let sim = Simulation.create cfg in
  Alcotest.(check bool) "at least 4 informed at t0" true
    (Simulation.informed_count sim >= 4);
  Alcotest.(check (option int)) "no single source recorded" None
    (Simulation.source sim)

let test_all_sources_instant () =
  let r =
    Simulation.run_config (Config.make ~side:20 ~agents:7 ~sources:7 ())
  in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "instant" 0 r.Simulation.steps

let test_more_sources_not_slower () =
  let median sources =
    let times =
      Array.init 7 (fun trial ->
          float_of_int
            (Simulation.run_config
               (Config.make ~side:24 ~agents:16 ~sources ~seed:4 ~trial ()))
              .Simulation.steps)
    in
    Array.sort compare times;
    times.(3)
  in
  let t1 = median 1 and t8 = median 8 in
  Alcotest.(check bool)
    (Printf.sprintf "8 sources (%.0f) beat 1 source (%.0f)" t8 t1)
    true (t8 < t1)

let test_torus_broadcast () =
  let cfg = Config.make ~torus:true ~side:16 ~agents:8 ~seed:1 () in
  let r = Simulation.run_config cfg in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "all informed" 8 r.Simulation.informed;
  (* deterministic *)
  let r2 = Simulation.run_config cfg in
  Alcotest.(check int) "deterministic" r.Simulation.steps r2.Simulation.steps

let test_torus_differs_from_bounded () =
  let steps torus =
    (Simulation.run_config (Config.make ~torus ~side:16 ~agents:8 ~seed:1 ()))
      .Simulation.steps
  in
  Alcotest.(check bool) "topology changes the dynamics" true
    (steps true <> steps false)

let test_torus_validation () =
  Alcotest.(check bool) "tiny torus rejected" true
    (match Config.validate (Config.make ~torus:true ~side:2 ~agents:1 ()) with
    | Error _ -> true
    | Ok () -> false)

(* --- dense baseline (Clementi et al.) --- *)

(* Their model is a grid configuration: agents jump to a uniform node
   within [rho] and exchange one hop within [big_r] per step. *)
let dense ?(side = 16) ?(agents = 64) ?(big_r = 2) ?(rho = 2) ?(seed = 0)
    ?(trial = 0) ?(max_steps = 50_000) () =
  Simulation.run_config
    (Config.make ~side ~agents ~radius:big_r ~kernel:(Walk.Jump rho)
       ~exchange:Config.Single_hop ~seed ~trial ~max_steps ())

let test_dense_completes () =
  let r = dense () in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "all informed" 64 r.Simulation.informed;
  Alcotest.(check bool) "fast in the dense regime" true
    (r.Simulation.steps < 200)

let test_dense_single_agent () =
  let r = dense ~agents:1 () in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "instant" 0 r.Simulation.steps

let test_dense_deterministic () =
  let a = dense ~seed:9 ~trial:3 () and b = dense ~seed:9 ~trial:3 () in
  Alcotest.(check int) "same steps" a.Simulation.steps b.Simulation.steps

let test_dense_trials_vary () =
  let all = List.init 8 (fun trial -> (dense ~trial ()).Simulation.steps) in
  Alcotest.(check bool) "trials differ" true
    (List.exists (fun s -> s <> List.hd all) (List.tl all))

let test_dense_bigger_radius_faster () =
  let median big_r =
    let times =
      Array.init 9 (fun trial -> (dense ~big_r ~rho:big_r ~trial ()).Simulation.steps)
    in
    Array.sort compare times;
    times.(4)
  in
  let t2 = median 2 and t8 = median 8 in
  Alcotest.(check bool)
    (Printf.sprintf "R=8 (%d) faster than R=2 (%d)" t8 t2)
    true (t8 <= t2)

let test_dense_zero_radii () =
  (* R = 0: exchange only on exact cohabitation; rho = 0: nobody moves.
     Both zero: must time out unless all agents share the source node. *)
  let r = dense ~agents:8 ~big_r:0 ~rho:0 ~max_steps:50 () in
  match r.Simulation.outcome with
  | Simulation.Timed_out ->
      Alcotest.(check bool) "stuck" true (r.Simulation.informed < 8)
  | Simulation.Completed ->
      Alcotest.(check int) "degenerate" 8 r.Simulation.informed

let test_dense_one_hop_semantics () =
  (* frozen agents (rho = 0): with R the grid's diameter the rumor
     reaches everyone in at most one step after t0, but with R = 1 it
     travels one hop per step, so a dense frozen population that floods
     at once still needs about a grid diameter of steps *)
  let fast = dense ~agents:32 ~big_r:30 ~rho:0 () in
  Alcotest.(check bool) "R = diameter: at most 1 step" true
    (fast.Simulation.steps <= 1);
  let slow = dense ~agents:256 ~big_r:1 ~rho:0 ~max_steps:200 () in
  Alcotest.(check bool)
    (Printf.sprintf "R=1 takes many steps (%d)" slow.Simulation.steps)
    true
    (slow.Simulation.steps >= 5)

let prop_dense_informed_bounded =
  QCheck.Test.make ~name:"informed count within [1, k]" ~count:100
    QCheck.(quad (int_range 4 16) (int_range 1 40) (int_range 0 5) small_int)
    (fun (side, agents, big_r, seed) ->
      let r = dense ~side ~agents ~big_r ~rho:big_r ~seed ~max_steps:200 () in
      r.Simulation.informed >= 1 && r.Simulation.informed <= agents)

let prop_dense_completed_means_all =
  QCheck.Test.make ~name:"completed implies everyone informed" ~count:100
    QCheck.(triple (int_range 4 12) (int_range 1 30) small_int)
    (fun (side, agents, seed) ->
      let r = dense ~side ~agents ~seed () in
      (not (completed r)) || r.Simulation.informed = agents)

(* --- getters and misc --- *)

let test_population_and_getters () =
  let cfg = Config.make ~side:9 ~agents:7 () in
  let sim = Simulation.create cfg in
  Alcotest.(check int) "population" 7 (Simulation.population sim);
  Alcotest.(check int) "grid size" 81 (Grid.nodes (Simulation.grid sim));
  Alcotest.(check int) "time 0" 0 (Simulation.time sim);
  Alcotest.(check bool) "informed count is 1" true
    (Simulation.informed_count sim >= 1);
  let positions = Simulation.positions sim in
  Alcotest.(check int) "positions array" 7 (Array.length positions);
  Array.iteri
    (fun i p ->
      Alcotest.(check int) "getter matches array" p (Simulation.position sim i))
    positions;
  Alcotest.check_raises "agent out of range"
    (Invalid_argument "Simulation: agent index out of range") (fun () ->
      ignore (Simulation.is_informed sim 7))

let test_positions_returns_copy () =
  let sim = Simulation.create (Config.make ~side:9 ~agents:3 ()) in
  let positions = Simulation.positions sim in
  let original = Simulation.position sim 0 in
  positions.(0) <- (positions.(0) + 1) mod 81;
  Alcotest.(check int) "engine state unaffected" original
    (Simulation.position sim 0)

let test_on_step_fires_every_step () =
  let cfg = Config.make ~side:12 ~agents:4 ~max_steps:25 () in
  let count = ref 0 in
  let r = Simulation.run_config ~on_step:(fun _ -> incr count) cfg in
  Alcotest.(check int) "one callback per step" r.Simulation.steps !count

let test_max_island_tracked () =
  let cfg = Config.make ~side:8 ~agents:6 ~radius:16 () in
  let sim = Simulation.create cfg in
  (* radius >= diameter: all agents are one island *)
  Alcotest.(check int) "island of everyone" 6 (Simulation.max_island sim);
  Alcotest.(check (array int)) "single island listed" [| 6 |]
    (Grid_engine.island_sizes sim)

let test_island_sizes_partition () =
  let sim = Simulation.create (Config.make ~side:16 ~agents:9 ~radius:2 ()) in
  let sizes = Grid_engine.island_sizes sim in
  Alcotest.(check int) "sizes sum to population" 9
    (Array.fold_left ( + ) 0 sizes);
  Alcotest.(check int) "max matches" (Simulation.max_island sim)
    (Array.fold_left max 0 sizes);
  (* predator-prey builds no components *)
  let pp =
    Simulation.create
      (Config.make ~side:16 ~agents:3
         ~protocol:(Protocol.Predator_prey { preys = 2 })
         ())
  in
  Alcotest.(check (array int)) "predator-prey has none" [||]
    (Grid_engine.island_sizes pp)

(* --- qcheck: engine invariants on random small configurations --- *)

let protocol_gen =
  QCheck.Gen.oneofl
    [
      Protocol.Broadcast; Protocol.Gossip; Protocol.Frog;
      Protocol.Broadcast_cover; Protocol.Cover_walks;
      Protocol.Predator_prey { preys = 3 };
    ]

let config_gen =
  QCheck.Gen.(
    map
      (fun (side, agents, radius, seed, proto) ->
        Config.make ~side ~agents ~radius ~protocol:proto ~seed
          ~max_steps:400 ())
      (tup5 (int_range 3 10) (int_range 1 6) (int_range 0 3) (int_range 0 999)
         protocol_gen))

let arb_config =
  QCheck.make config_gen ~print:(fun cfg -> Config.to_string cfg)

let prop_run_invariants =
  QCheck.Test.make ~name:"reports are internally consistent" ~count:150
    arb_config (fun cfg ->
      let r, column = run_series cfg in
      let population = Protocol.population cfg.Config.protocol ~k:cfg.Config.agents in
      let informed = column "informed" in
      let series_ok =
        Array.length informed = r.Simulation.steps + 1
        && Array.for_all (fun c -> c >= 0 && c <= population) informed
      in
      r.Simulation.steps <= 400
      && r.Simulation.informed <= population
      && r.Simulation.informed >= 0
      && series_ok)

let prop_completed_means_goal_reached =
  QCheck.Test.make ~name:"completed runs reached their protocol goal"
    ~count:150 arb_config (fun cfg ->
      let sim = Simulation.create cfg in
      let r = Simulation.run sim in
      match r.Simulation.outcome with
      | Simulation.Timed_out -> true
      | Simulation.Completed -> (
          let population = Simulation.population sim in
          match cfg.Config.protocol with
          | Protocol.Broadcast | Protocol.Frog ->
              r.Simulation.informed = population
          | Protocol.Gossip ->
              let all = ref true in
              for i = 0 to population - 1 do
                if rumors_known sim i <> population then all := false
              done;
              !all
          | Protocol.Broadcast_cover | Protocol.Cover_walks ->
              r.Simulation.covered = Config.n cfg
          | Protocol.Predator_prey _ -> Grid_engine.live_preys sim = 0))

let prop_determinism =
  QCheck.Test.make ~name:"identical configs give identical runs" ~count:60
    arb_config (fun cfg ->
      let a = Simulation.run_config cfg and b = Simulation.run_config cfg in
      a.Simulation.steps = b.Simulation.steps
      && a.Simulation.informed = b.Simulation.informed
      && a.Simulation.covered = b.Simulation.covered)

(* The components oracle: after every step, label the visibility
   graph's components by a naive flood fill over the O(k^2) Manhattan
   pair scan of [Simulation.positions] (distances wrap on a torus). The
   engine's island sizes must be the same multiset, its max island the
   largest of them, and every component all-informed or all-uninformed
   (a flooding exchange crosses whole components). *)
let brute_components (cfg : Config.t) positions =
  let side = cfg.Config.side and k = Array.length positions in
  let axis a b =
    let d = abs (a - b) in
    if cfg.Config.torus then min d (side - d) else d
  in
  let close i j =
    let p = positions.(i) and q = positions.(j) in
    axis (p mod side) (q mod side) + axis (p / side) (q / side)
    <= cfg.Config.radius
  in
  let label = Array.make k (-1) in
  let rec fill c i =
    if label.(i) < 0 then begin
      label.(i) <- c;
      for j = 0 to k - 1 do
        if close i j then fill c j
      done
    end
  in
  let count = ref 0 in
  for i = 0 to k - 1 do
    if label.(i) < 0 then begin
      fill !count i;
      incr count
    end
  done;
  (label, !count)

let prop_components_oracle =
  QCheck.Test.make ~name:"islands = brute-force components, every step"
    ~count:40
    (QCheck.make
       QCheck.Gen.(
         pair
           (tup6 (int_range 3 10) (int_range 1 12) (int_range 0 2)
              (int_range 0 999) bool
              (oneofl
                 [ Protocol.Broadcast; Protocol.Frog; Protocol.Gossip;
                   Protocol.Broadcast_cover; Protocol.Cover_walks ]))
           (pair
              (oneofl [ Config.Flood_component; Config.Single_hop ])
              (oneofl [ Walk.Lazy_one_fifth; Walk.Jump 2 ]))))
    (fun ((side, agents, radius, seed, torus, protocol), (exchange, kernel)) ->
      let cfg =
        Config.make ~side ~agents ~radius ~torus ~kernel ~protocol ~exchange
          ~seed ~max_steps:300 ()
      in
      let floods =
        match (exchange, protocol) with
        | ( Config.Flood_component,
            ( Protocol.Broadcast | Protocol.Frog | Protocol.Gossip
            | Protocol.Broadcast_cover ) ) ->
            true
        | _ -> false
      in
      let ok = ref true in
      (* the read-time island build (every exchange but flooding) must
         see the same graph as the step did *)
      let check sim =
        let label, count = brute_components cfg (Simulation.positions sim) in
        let sizes = Array.make count 0 and informed = Array.make count 0 in
        Array.iteri
          (fun i c ->
            sizes.(c) <- sizes.(c) + 1;
            if Simulation.is_informed sim i then
              informed.(c) <- informed.(c) + 1)
          label;
        let sorted a = List.sort compare (Array.to_list a) in
        ok :=
          !ok
          && Simulation.max_island sim = Array.fold_left max 0 sizes
          && sorted sizes = sorted (Grid_engine.island_sizes sim)
          && ((not floods)
             || Array.for_all2 (fun n i -> i = 0 || i = n) sizes informed)
      in
      let sim = Simulation.create cfg in
      check sim;
      ignore (Simulation.run ~on_step:check sim : Simulation.report);
      !ok)

let () =
  Alcotest.run "simulation"
    [
      ( "broadcast",
        [
          Alcotest.test_case "completes, all informed" `Quick
            test_broadcast_completes_all_informed;
          Alcotest.test_case "single agent instant" `Quick
            test_broadcast_single_agent_instant;
          Alcotest.test_case "full radius instant" `Quick
            test_broadcast_full_radius_instant;
          Alcotest.test_case "explicit source" `Quick
            test_broadcast_explicit_source;
          Alcotest.test_case "deterministic" `Quick test_broadcast_deterministic;
          Alcotest.test_case "trials differ" `Quick test_trials_differ;
          Alcotest.test_case "informed monotone" `Quick
            test_informed_monotone_and_bounded;
          Alcotest.test_case "frontier monotone" `Quick
            test_frontier_monotone_and_bounded;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "zero cap" `Quick test_zero_cap_reports_initial_state;
          Alcotest.test_case "invalid config" `Quick test_invalid_config_raises;
          Alcotest.test_case "step after done" `Quick
            test_step_after_done_is_noop;
          Alcotest.test_case "radius speeds broadcast" `Slow
            test_radius_speeds_broadcast;
        ] );
      ( "gossip",
        [
          Alcotest.test_case "everyone knows everything" `Quick
            test_gossip_everyone_knows_everything;
          Alcotest.test_case "initial knowledge" `Quick
            test_gossip_initial_knowledge;
        ] );
      ( "frog",
        [
          Alcotest.test_case "completes" `Quick test_frog_completes;
          Alcotest.test_case "uninformed frozen" `Quick
            test_frog_uninformed_agents_frozen;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "cover walks" `Quick test_cover_walks_covers_grid;
          Alcotest.test_case "initial coverage" `Quick
            test_cover_walks_initial_positions_covered;
          Alcotest.test_case "broadcast cover" `Quick
            test_broadcast_cover_subsumes_broadcast;
          Alcotest.test_case "coverage monotone" `Quick test_coverage_monotone;
        ] );
      ( "predator-prey",
        [
          Alcotest.test_case "extinction" `Quick test_predator_prey_extinction;
          Alcotest.test_case "no preys" `Quick
            test_predator_prey_no_preys_instant;
          Alcotest.test_case "live preys monotone" `Quick
            test_predator_prey_live_preys_monotone;
          Alcotest.test_case "no chaining" `Quick test_predator_prey_no_chaining;
        ] );
      ( "exchange and sources",
        [
          Alcotest.test_case "single-hop completes" `Quick
            test_single_hop_completes;
          Alcotest.test_case "single-hop bounded by flood" `Quick
            test_single_hop_no_transitive_jump;
          Alcotest.test_case "single-hop slower above rc" `Quick
            test_single_hop_slower_above_percolation;
          Alcotest.test_case "single-hop gossip" `Quick
            test_single_hop_gossip_completes;
          Alcotest.test_case "flood dominates single-hop" `Quick
            test_flood_dominates_single_hop_stepwise;
          Alcotest.test_case "multiple sources" `Quick test_multiple_sources;
          Alcotest.test_case "all agents sources" `Quick
            test_all_sources_instant;
          Alcotest.test_case "more sources faster" `Slow
            test_more_sources_not_slower;
        ] );
      ( "torus",
        [
          Alcotest.test_case "broadcast on torus" `Quick test_torus_broadcast;
          Alcotest.test_case "topology matters" `Quick
            test_torus_differs_from_bounded;
          Alcotest.test_case "validation" `Quick test_torus_validation;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "completes dense" `Quick test_dense_completes;
          Alcotest.test_case "single agent" `Quick test_dense_single_agent;
          Alcotest.test_case "deterministic" `Quick test_dense_deterministic;
          Alcotest.test_case "trials vary" `Quick test_dense_trials_vary;
          Alcotest.test_case "bigger radius faster" `Slow
            test_dense_bigger_radius_faster;
          Alcotest.test_case "zero radii" `Quick test_dense_zero_radii;
          Alcotest.test_case "one-hop semantics" `Quick
            test_dense_one_hop_semantics;
        ] );
      ( "getters",
        [
          Alcotest.test_case "population and getters" `Quick
            test_population_and_getters;
          Alcotest.test_case "positions copy" `Quick test_positions_returns_copy;
          Alcotest.test_case "on_step callback" `Quick
            test_on_step_fires_every_step;
          Alcotest.test_case "max island" `Quick test_max_island_tracked;
          Alcotest.test_case "island sizes" `Quick
            test_island_sizes_partition;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_run_invariants; prop_completed_means_goal_reached;
            prop_determinism; prop_components_oracle;
            prop_dense_informed_bounded; prop_dense_completed_means_all;
          ] );
    ]
