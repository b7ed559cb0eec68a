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
    ?(exchange = Config.Flood_component) ?(sources = 1) ~side ~agents ~seed ()
    =
  (Simulation.run_config
     (Config.make ~torus ~radius ~protocol ~exchange ~sources ~side ~agents
        ~seed ()))
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
  (* rumor sets one bit past a 64-bit word (k = 65) and spanning three
     words (k = 130), flooded and single-hop *)
  let gossip ~exchange ~agents =
    steps ~side:32 ~agents ~radius:2 ~protocol:Protocol.Gossip ~exchange
      ~seed:4 ()
  in
  Alcotest.(check int) "gossip k=65 flood" 344
    (gossip ~exchange:Config.Flood_component ~agents:65);
  Alcotest.(check int) "gossip k=130 flood" 112
    (gossip ~exchange:Config.Flood_component ~agents:130);
  Alcotest.(check int) "gossip k=65 single-hop" 344
    (gossip ~exchange:Config.Single_hop ~agents:65);
  Alcotest.(check int) "gossip k=130 single-hop" 128
    (gossip ~exchange:Config.Single_hop ~agents:130);
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

(* The floor plans and the continuum box: the engine over their spaces,
   a single-source broadcast from seed 0, trial 0. *)
module Engine = Mobile_network.Engine
module Domain_engine = Engine.Make (Barriers.Domain_space)
module Continuum_engine = Engine.Make (Continuum.Space)

let spec ~agents =
  Engine.default_spec ~agents ~seed:0 ~trial:0 ~max_steps:1_000_000

let domain_run ?series ?(los_blocking = false) ~radius ~agents domain =
  Domain_engine.run
    (Domain_engine.create ?series
       ~space:(Barriers.Domain_space.create domain ~radius ~los_blocking)
       (spec ~agents))

let continuum_run ?series ~box_side ~radius ~sigma ~agents () =
  Continuum_engine.run
    (Continuum_engine.create ?series
       ~space:(Continuum.Space.create ~box_side ~radius ~sigma ~agents)
       (spec ~agents))

let stride1_series () =
  Obs.Series.create ~capacity:max_int ~columns:Engine.series_columns ()

let column series name =
  String.concat " "
    (Array.to_list (Array.map string_of_int (Obs.Series.column series name)))

let test_satellite_simulators () =
  let d = Barriers.Domain.central_wall (Grid.create ~side:16 ()) ~gap:2 in
  let br = domain_run ~radius:0 ~agents:8 d in
  Alcotest.(check int) "barrier broadcast" 1300 br.Engine.steps;
  let cr = continuum_run ~box_side:8. ~radius:0.5 ~sigma:0.2 ~agents:32 () in
  Alcotest.(check int) "continuum broadcast" 274 cr.Engine.steps;
  (* radius >= 1 on a floor plan whose wall also blocks radio *)
  let dl =
    domain_run ~radius:2 ~los_blocking:true ~agents:10
      (Barriers.Domain.central_wall (Grid.create ~side:24 ()) ~gap:2)
  in
  Alcotest.(check int) "barrier broadcast r=2 line of sight" 877
    dl.Engine.steps;
  (* k 256 in a box of side 16 at r 1.2: most of the 169 buckets occupied *)
  let series = stride1_series () in
  let cb =
    continuum_run ~series ~box_side:16. ~radius:1.2 ~sigma:0.3 ~agents:256 ()
  in
  Alcotest.(check int) "continuum broadcast k=256" 16 cb.Engine.steps;
  let column = column series in
  Alcotest.(check string) "continuum k=256 informed"
    "137 226 239 241 243 243 243 246 246 246 255 255 255 255 255 255 256" (column "informed");
  Alcotest.(check string) "continuum k=256 max_island"
    "137 201 131 197 187 210 115 202 142 193 197 119 175 121 175 93 204"
    (column "max_island");
  (* one-shot snapshots through the grid index, at radii 0 to past r_c *)
  let grid = Grid.create ~side:32 () in
  Alcotest.(check int) "percolation estimate_rc" 7
    (Mobile_network.Percolation.estimate_rc grid (Prng.of_seed 5) ~k:48
       ~trials:4);
  Alcotest.(check string) "percolation giant_fraction_at" "0.09375"
    (Printf.sprintf "%.17g"
       (Mobile_network.Percolation.giant_fraction_at grid (Prng.of_seed 6)
          ~k:48 ~radius:3 ~trials:4));
  (* Clementi et al.'s dense model is a grid configuration: the jump
     kernel with one-hop exchange *)
  let cl =
    Simulation.run_config
      (Config.make ~side:16 ~agents:64 ~radius:2 ~kernel:(Walk.Jump 2)
         ~exchange:Config.Single_hop ~seed:0 ~trial:0 ~max_steps:100_000 ())
  in
  Alcotest.(check int) "clementi broadcast" 15 cl.Simulation.steps

(* The series' theory_residual column, informed minus the ramp
   round (k min(1, t / T_B)) with T_B = n / sqrt k, for one short run
   per space. Each space supplies its own n: the grid's 144 nodes, the
   floor plan's 134 free nodes (its side^2 would shift the ramp from
   step 10 on) and the continuum box's area, 256. *)
let test_theory_residual () =
  let series = stride1_series () in
  let g =
    Simulation.run_config ~series
      (Config.make ~side:12 ~agents:16 ~radius:2 ~seed:0 ())
  in
  Alcotest.(check int) "grid steps" 27 g.Simulation.steps;
  Alcotest.(check string) "grid theory_residual"
    "4 4 5 5 4 4 3 3 4 4 4 4 4 3 3 3 3 2 2 3 2 2 2 2 4 4 3 4"
    (column series "theory_residual");
  let series = stride1_series () in
  let d =
    domain_run ~series ~radius:2 ~agents:16
      (Barriers.Domain.central_wall (Grid.create ~side:12 ()) ~gap:2)
  in
  Alcotest.(check int) "wall steps" 17 d.Engine.steps;
  Alcotest.(check string) "wall theory_residual"
    "5 6 6 6 5 5 4 4 3 3 3 3 2 5 5 5 6 8"
    (column series "theory_residual");
  let series = stride1_series () in
  let c =
    continuum_run ~series ~box_side:16. ~radius:1.2 ~sigma:0.3 ~agents:256 ()
  in
  Alcotest.(check int) "continuum steps" 16 c.Engine.steps;
  Alcotest.(check string) "continuum theory_residual"
    "137 210 207 193 179 163 147 134 118 102 95 79 63 47 31 15 0"
    (column series "theory_residual")

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
    (fsteps ~source:0 { Plan.empty with Plan.silent = [ 3 ] });
  (* Radius 0, crowded enough that cells hold several agents: the loss
     draws follow the order of the index's cohabiting pairs, so these
     pins freeze that order too, on one- and multi-digit node keys. *)
  let r0steps ?(torus = false) ~side ~agents ~seed plan =
    (Simulation.run_config
       (Config.make ~torus ~radius:0 ~side ~agents ~seed ~faults:plan ()))
      .Simulation.steps
  in
  let loss p = { Plan.empty with Plan.loss_p = p } in
  Alcotest.(check int) "r=0 loss 0.5" 266
    (r0steps ~side:32 ~agents:300 ~seed:3 (loss 0.5));
  Alcotest.(check int) "r=0 loss 0.7, side 128" 1282
    (r0steps ~side:128 ~agents:3000 ~seed:4 (loss 0.7));
  Alcotest.(check int) "r=0 loss 0.6 + churn" 767
    (r0steps ~side:100 ~agents:2000 ~seed:5
       { (loss 0.6) with
         Plan.churn = Some { Plan.leave_p = 0.05; return_p = 0.5 } });
  Alcotest.(check int) "r=0 loss 0.6, torus" 588
    (r0steps ~torus:true ~side:100 ~agents:2000 ~seed:6 (loss 0.6))

(* dense_gossip's shape (side 64, k 256, r 2, gossip): four-word rumor
   sets and about 50 components a step. Every agent's rumor cardinal
   after 40 steps, pinned by its total and the digest of the list in
   agent order. *)
let test_dense_gossip_cardinals () =
  let sim =
    Simulation.create
      (Config.make ~side:64 ~agents:256 ~radius:2 ~protocol:Protocol.Gossip
         ~seed:4 ())
  in
  for _ = 1 to 40 do
    Simulation.step sim
  done;
  let cards = List.init 256 (Simulation.rumors_known sim) in
  Alcotest.(check int) "total known" 5383 (List.fold_left ( + ) 0 cards);
  Alcotest.(check string) "cardinals digest" "2840a649d13be5b24c9803a40a45d720"
    (Digest.to_hex
       (Digest.string (String.concat "," (List.map string_of_int cards))))

(* Three sources at radius 0 (side 32, k 64) for each single-rumor
   flood: no CLI flag or scenario field reaches [sources], so these
   pins stand where `make check` pins the one-source runs. *)
let test_multi_source_radius0 () =
  List.iter
    (fun (label, protocol, pinned) ->
      List.iteri
        (fun seed expected ->
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d" label seed)
            expected
            (steps ~protocol ~sources:3 ~side:32 ~agents:64 ~seed ()))
        pinned)
    [
      ("broadcast", Protocol.Broadcast, [ 401; 250; 373 ]);
      ("frog", Protocol.Frog, [ 465; 384; 480 ]);
      ("broadcast-cover", Protocol.Broadcast_cover, [ 675; 488; 529 ]);
    ]

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
          Alcotest.test_case "theory residual" `Quick test_theory_residual;
          Alcotest.test_case "fault injection" `Quick test_fault_injection;
          Alcotest.test_case "dense gossip rumor cardinals" `Quick
            test_dense_gossip_cardinals;
          Alcotest.test_case "radius-0 multi-source" `Quick
            test_multi_source_radius0;
        ] );
    ]
