(* Golden regression tests: exact deterministic outputs pinned from a
   known-good build. Every simulator in the repo is deterministic given
   (seed, trial), so any accidental change to the PRNG, to the engine's
   evaluation order, or to a kernel's probabilities shows up here as an
   exact mismatch — long before it would bend an experiment's statistics.

   If a change is *intentional* (e.g. a new PRNG constant), re-pin these
   values and say so in the commit; the experiment suite revalidates the
   physics independently. *)

module Config = Mobile_network.Config
module Protocol = Mobile_network.Protocol
module Simulation = Mobile_network.Simulation

let steps ?(torus = false) ?(radius = 0) ?(protocol = Protocol.Broadcast)
    ?(exchange = Config.Flood_component) ~side ~agents ~seed () =
  (Simulation.run_config
     (Config.make ~torus ~radius ~protocol ~exchange ~side ~agents ~seed ()))
    .Simulation.steps

let test_prng_stream () =
  let rng = Prng.of_seed 42 in
  Alcotest.(check int64) "draw 1" 1546998764402558742L (Prng.bits64 rng);
  Alcotest.(check int64) "draw 2" 6990951692964543102L (Prng.bits64 rng);
  Alcotest.(check int64) "draw 3" (-5902157311460992607L) (Prng.bits64 rng);
  let child = Prng.split (Prng.of_seed 42) in
  Alcotest.(check int64) "split child draw" 832859759179319558L
    (Prng.bits64 child)

let test_walk_endpoint () =
  let g = Grid.create ~side:32 () in
  Alcotest.(check int) "lazy walk endpoint after 500 steps" 417
    (Walk.advance g Walk.Lazy_one_fifth (Prng.of_seed 9) (Grid.center g)
       ~steps:500)

let test_engine_completion_times () =
  Alcotest.(check int) "broadcast" 612 (steps ~side:16 ~agents:6 ~seed:0 ());
  Alcotest.(check int) "broadcast r=2" 358
    (steps ~side:24 ~agents:12 ~radius:2 ~seed:3 ());
  Alcotest.(check int) "gossip" 245
    (steps ~side:12 ~agents:5 ~protocol:Protocol.Gossip ~seed:1 ());
  Alcotest.(check int) "frog" 625
    (steps ~side:12 ~agents:6 ~protocol:Protocol.Frog ~seed:2 ());
  Alcotest.(check int) "cover walks" 559
    (steps ~side:10 ~agents:4 ~protocol:Protocol.Cover_walks ~seed:0 ());
  Alcotest.(check int) "predator-prey" 252
    (steps ~side:10 ~agents:4
       ~protocol:(Protocol.Predator_prey { preys = 6 })
       ~seed:5 ());
  Alcotest.(check int) "torus" 157 (steps ~torus:true ~side:16 ~agents:6 ~seed:0 ());
  (* single-hop equals flooding here: below percolation the components
     are so small that one hop covers them (the A1 phenomenon) *)
  Alcotest.(check int) "single-hop" 612
    (steps ~side:16 ~agents:6 ~seed:0 ~exchange:Config.Single_hop ())

let test_satellite_simulators () =
  let d = Barriers.Domain.central_wall (Grid.create ~side:16 ()) ~gap:2 in
  let br =
    Barriers.Barrier_sim.broadcast
      { Barriers.Barrier_sim.domain = d; agents = 8; radius = 0;
        los_blocking = false; seed = 0; trial = 0; max_steps = 1_000_000 }
  in
  Alcotest.(check int) "barrier broadcast" 1300 br.Mobile_network.Engine.steps;
  let cr =
    Continuum.broadcast
      { Continuum.box_side = 8.; agents = 32; radius = 0.5; sigma = 0.2;
        seed = 0; trial = 0; max_steps = 1_000_000 }
  in
  Alcotest.(check int) "continuum broadcast" 274 cr.Mobile_network.Engine.steps;
  let cl =
    Baselines.Clementi.broadcast
      { Baselines.Clementi.side = 16; agents = 64; big_r = 2; rho = 2;
        seed = 0; trial = 0; max_steps = 100_000 }
  in
  Alcotest.(check int) "clementi broadcast" 15 cl.Mobile_network.Engine.steps

(* The fault adversary draws from its own subsystem streams, so these
   pins also freeze the split_stream derivation: a change to the
   subsystem salt or stream layout shows up here, not just in lib/prng's
   unit tests. The shared scenario is side 16, k = 6, r = 1, seed 0,
   whose fault-free completion is 596 steps. *)
let test_fault_injection () =
  let module Plan = Faults.Plan in
  let fsteps ?max_steps ?source plan =
    (Simulation.run_config
       (Config.make ~side:16 ~agents:6 ~radius:1 ~seed:0 ?max_steps ?source
          ~faults:plan ()))
      .Simulation.steps
  in
  Alcotest.(check int) "empty plan = pristine run" 596 (fsteps Plan.empty);
  Alcotest.(check int) "loss 0.9" 1734
    (fsteps { Plan.empty with Plan.loss_p = 0.9 });
  Alcotest.(check int) "duty 7/8 outage" 655
    (fsteps { Plan.empty with Plan.duty = Some (7, 8) });
  Alcotest.(check int) "churn 0.05/0.5" 663
    (fsteps
       { Plan.empty with
         Plan.churn = Some { Plan.leave_p = 0.05; return_p = 0.5 } });
  Alcotest.(check int) "combined plan" 562
    (fsteps
       { Plan.loss_p = 0.25; duty = Some (2, 10);
         windows = [ { Plan.w_from = 10; w_until = 30; w_agent = Some 1 } ];
         churn = Some { Plan.leave_p = 0.02; return_p = 0.4 };
         silent = []; deaf = [] });
  (* a silent agent holds the rumor without retransmitting; the others
     still complete the broadcast around it *)
  Alcotest.(check int) "silent bystander" 218
    (fsteps ~source:0 { Plan.empty with Plan.silent = [ 3 ] })

let () =
  Alcotest.run "golden"
    [
      ( "golden",
        [
          Alcotest.test_case "prng stream" `Quick test_prng_stream;
          Alcotest.test_case "walk endpoint" `Quick test_walk_endpoint;
          Alcotest.test_case "engine completion times" `Quick
            test_engine_completion_times;
          Alcotest.test_case "satellite simulators" `Quick
            test_satellite_simulators;
          Alcotest.test_case "fault injection" `Quick test_fault_injection;
        ] );
    ]
