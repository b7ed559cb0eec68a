(* Dynamic cross-check of the static alloc-discipline pass: the lint
   proves the hot path is structurally allocation-free (modulo justified
   [@alloc_ok] sites); this test measures it. Each whole-run probe below
   must stay within a minor-heap budget per step — if an unjustified
   allocation sneaks past the analyzer (e.g. through a functor boundary
   it cannot see), this trips even though mobilint stays green.

   Each budget is the words/step measured on OCaml 5.1 plus a slack for
   other compilers and GC timing: 8 words/step, or 2 % for the probes
   that allocate more than 1000 words/step. *)

module Config = Mobile_network.Config
module Protocol = Mobile_network.Protocol
module Simulation = Mobile_network.Simulation
module Grid_engine = Mobile_network.Engine.Make (Mobile_network.Grid_space)

let grid_run ?series ?(side = 64) ?radius ?protocol ?exchange ?faults
    ?(max_steps = 2000) () =
  (Simulation.run_config ?series
     (Config.make ~side ~agents:64 ?radius ?protocol ?exchange ?faults
        ~seed:7 ~max_steps ()))
    .Simulation.steps

let faulted_run ?exchange () =
  grid_run ~side:32 ~radius:1 ?exchange
    ~faults:
      { Faults.Plan.empty with
        Faults.Plan.loss_p = 0.3;
        churn = Some { Faults.Plan.leave_p = 0.02; return_p = 0.3 } }
    ~max_steps:2000 ()

let traced_run () =
  let tracer = Obs.Tracer.create ~capacity:(1 lsl 16) () in
  Obs.Tracer.set_ambient tracer;
  let steps =
    Fun.protect
      ~finally:(fun () -> Obs.Tracer.set_ambient Obs.Tracer.null)
      grid_run
  in
  (* a full ring stops paying the store path, which would flatter the
     number *)
  Alcotest.(check int) "no dropped events" 0 (Obs.Tracer.dropped tracer);
  steps

let series_run () =
  grid_run
    ~series:(Obs.Series.create ~columns:Mobile_network.Engine.series_columns ())
    ()

let gossip_run ?exchange () =
  grid_run ~side:32 ~radius:2 ~protocol:Protocol.Gossip ?exchange
    ~max_steps:500 ()

module Domain_engine = Mobile_network.Engine.Make (Barriers.Domain_space)

(* the floor plan is built once, so only the run is measured *)
let barrier_run =
  let domain = Barriers.Domain.central_wall (Grid.create ~side:40 ()) ~gap:2 in
  fun () ->
    (Domain_engine.run
       (Domain_engine.create
          ~space:
            (Barriers.Domain_space.create domain ~radius:4 ~los_blocking:true)
          (Mobile_network.Engine.default_spec ~agents:24 ~seed:7 ~trial:0
             ~max_steps:20_000)))
      .Mobile_network.Engine.steps

let plus_words measured = measured +. 8.
let plus_percent measured = measured *. 1.02

(* (label, one whole run returning its step count, budget in minor
   words/step); each budget is built from the words/step measured when
   it was set. *)
let probes =
  [
    (* side 64, k 64, r 0 *)
    ("headline probe", (fun () -> grid_run ()), plus_words 0.8);
    ("r=8", (fun () -> grid_run ~radius:8 ()), plus_words 20.2);
    (* the headline run with a recording tracer / a series recorder *)
    ("traced", traced_run, plus_words 25.0);
    ("series", series_run, plus_words 20.3);
    (* side 32, k 64, r 2 *)
    ("gossip flood", (fun () -> gossip_run ()), plus_words 13.0);
    ("gossip single-hop", gossip_run ~exchange:Config.Single_hop,
     plus_words 29.2);
    (* the same run, one rumor: the newly informed agents are committed
       from a grow-once list *)
    ( "single-hop",
      (fun () ->
        grid_run ~side:32 ~radius:2 ~exchange:Config.Single_hop
          ~max_steps:500 ()),
      plus_words 19.9 );
    (* side 32, k 64, r 1, loss 0.3, churn 0.02/0.3: the churn and loss
       draws allocate nothing (Prng.bernoulli compares integers) *)
    ("faulted flood", (fun () -> faulted_run ()), plus_words 12.5);
    ("faulted single-hop", faulted_run ~exchange:Config.Single_hop,
     plus_words 17.5);
    (* side 40, k 24, central wall with gap 2, line of sight *)
    ("barrier", barrier_run, plus_words 7.7);
  ]

let test_probe_budget run budget () =
  ignore (run ());
  (* warmup: grow-once scratch, lazy tables *)
  let minor0 = Gc.minor_words () in
  let steps = ref 0 in
  for _ = 1 to 5 do
    steps := !steps + run ()
  done;
  let words = Gc.minor_words () -. minor0 in
  let per_step = words /. float_of_int (max 1 !steps) in
  if per_step > budget then
    Alcotest.failf "allocates %.1f minor words/step (budget %.1f over %d steps)"
      per_step budget !steps

(* Population scale: side 1024, k = 65536, r = 0 (density 1/16), in a
   step-capped window that cannot complete. Set-up allocates 3.0 minor
   words per agent: the agent's stream view into the shared int64 store
   ({!Prng.split_n}); the positions, the store and the index scratch are
   large blocks outside the minor heap. The set-up budget leaves one word
   per agent of room, none for a second per-agent block. The steady
   state must allocate nothing, so the step budget is one word per
   step — room for the measurement itself, none for a per-agent or
   per-bucket allocation.

   The set-up's total allocation, major heap included
   ([Gc.allocated_bytes]), is 11.1 words per agent: the stream views,
   the informed flags, the exchange's marks and the radius-0 index's
   five arrays (the positions and the stream store are Bigarrays,
   outside the heap). At radius 0 the components are cliques, so the
   engine allocates no union-find; one that did (4 words per agent)
   would read 15.3. The budget leaves 0.9 words per agent of room. *)
let population_budget_setup_words_per_agent = 4.0
let population_budget_setup_total_words_per_agent = 12.0
let population_budget_words_per_step = 1.0

let test_population_budget () =
  let agents = 65536 in
  let cfg =
    Config.make ~side:1024 ~agents ~radius:0 ~seed:7 ~max_steps:60 ()
  in
  let setup0 = Gc.minor_words () and bytes0 = Gc.allocated_bytes () in
  let sim = Simulation.create cfg in
  let setup =
    (Gc.minor_words () -. setup0) /. float_of_int agents
  in
  let setup_total =
    (Gc.allocated_bytes () -. bytes0)
    /. float_of_int (Sys.word_size / 8 * agents)
  in
  if setup > population_budget_setup_words_per_agent then
    Alcotest.failf
      "population-scale set-up allocates %.2f minor words/agent (budget %.1f)"
      setup population_budget_setup_words_per_agent;
  if setup_total > population_budget_setup_total_words_per_agent then
    Alcotest.failf
      "population-scale set-up allocates %.2f words/agent in all (budget %.1f)"
      setup_total population_budget_setup_total_words_per_agent;
  (* warmup: the grow-once index scratch is sized by the first steps *)
  for _ = 1 to 5 do
    Simulation.step sim
  done;
  let steps = 40 in
  let minor0 = Gc.minor_words () in
  for _ = 1 to steps do
    Simulation.step sim
  done;
  let per_step = (Gc.minor_words () -. minor0) /. float_of_int steps in
  Alcotest.(check bool) "window still running" false (Grid_engine.is_done sim);
  if per_step > population_budget_words_per_step then
    Alcotest.failf
      "population-scale step allocates %.2f minor words/step (budget %.1f)"
      per_step population_budget_words_per_step

(* Clementi et al.'s dense model, the jump kernel with one-hop exchange,
   at side 128, k 1024, R = rho = 2: a run of 301 steps, with set-up
   measured apart, since a dense run completes in a few steps and
   would measure mostly set-up. Set-up allocates 3.4 words per agent
   (the population probe's 3.0 stream views, plus the engine's fixed
   set-up over fewer agents), a step 5.0 words. *)
let clementi_budget_setup_words_per_agent = 4.4
let clementi_budget_words_per_step = plus_words 5.0

let test_clementi_budget () =
  let agents = 1024 in
  let cfg =
    Config.make ~side:128 ~agents ~radius:2 ~kernel:(Walk.Jump 2)
      ~exchange:Config.Single_hop ~seed:7 ~max_steps:4800 ()
  in
  (* warmup: lazy tables *)
  ignore (Simulation.run (Simulation.create cfg));
  let setup0 = Gc.minor_words () in
  let sim = Simulation.create cfg in
  let setup = (Gc.minor_words () -. setup0) /. float_of_int agents in
  if setup > clementi_budget_setup_words_per_agent then
    Alcotest.failf
      "clementi set-up allocates %.2f minor words/agent (budget %.1f)"
      setup clementi_budget_setup_words_per_agent;
  let minor0 = Gc.minor_words () in
  let steps = (Simulation.run sim).Simulation.steps in
  let per_step = (Gc.minor_words () -. minor0) /. float_of_int steps in
  if per_step > clementi_budget_words_per_step then
    Alcotest.failf
      "clementi allocates %.2f minor words/step (budget %.1f over %d steps)"
      per_step clementi_budget_words_per_step steps

(* The continuum box at k 256, box 16, r 1.2 (15-step runs), with
   set-up measured apart, as for the Clementi run: a run this short
   would otherwise spread its set-up over 15 steps. Set-up allocates
   28.4 words per agent (positions, streams, space and engine); the
   budget leaves one word per agent of room. A step allocates 2067.7
   words: the moves take 8 words per agent, since each coordinate's
   Prng.gaussian and reflect return a boxed float (2 words each) under
   dune's dev profile, which compiles with -opaque; the rest is the
   engine's few words of a radius > 0 step, and the pair scan allocates
   nothing (test_continuum). *)
module Continuum_engine = Mobile_network.Engine.Make (Continuum.Space)

let continuum_budget_setup_words_per_agent = 29.4
let continuum_budget_words_per_step = plus_percent 2067.7

let test_continuum_budget () =
  let agents = 256 and box_side = 16. and radius = 1.2 and sigma = 0.3 in
  let create () =
    Continuum_engine.create
      ~space:(Continuum.Space.create ~box_side ~radius ~sigma ~agents)
      (Mobile_network.Engine.default_spec ~agents ~seed:7 ~trial:0
         ~max_steps:500)
  in
  (* warmup: lazy tables *)
  ignore (Continuum_engine.run (create ()));
  let setup = ref 0. and words = ref 0. and steps = ref 0 in
  for _ = 1 to 5 do
    let w0 = Gc.minor_words () in
    let sim = create () in
    let w1 = Gc.minor_words () in
    let r = Continuum_engine.run sim in
    let w2 = Gc.minor_words () in
    setup := !setup +. (w1 -. w0);
    words := !words +. (w2 -. w1);
    steps := !steps + r.Mobile_network.Engine.steps
  done;
  let setup = !setup /. float_of_int (5 * agents) in
  if setup > continuum_budget_setup_words_per_agent then
    Alcotest.failf
      "continuum set-up allocates %.2f minor words/agent (budget %.1f)" setup
      continuum_budget_setup_words_per_agent;
  let per_step = !words /. float_of_int !steps in
  if per_step > continuum_budget_words_per_step then
    Alcotest.failf
      "continuum allocates %.2f minor words/step (budget %.1f over %d steps)"
      per_step continuum_budget_words_per_step !steps

(* The scalar walks of Lemmas 1-3 step with no per-step allocation: a
   10^4-step call allocates no more minor words than a 10-step one. Each
   call runs its whole budget: the hitting target lies beyond reach, and
   [where] rejects every meeting. *)
let scalar_walks =
  let grid = Grid.create ~side:1024 () in
  let start = Grid.center grid and far = Grid.index grid ~x:0 ~y:0 in
  [
    ( "advance",
      fun kernel rng steps -> ignore (Walk.advance grid kernel rng start ~steps) );
    ( "hits_within",
      fun kernel rng steps ->
        ignore (Walk.hits_within grid kernel rng ~start ~target:far ~steps) );
    ( "first_meeting",
      fun kernel rng steps ->
        ignore
          (Walk.first_meeting grid kernel rng ~a:start ~b:far ~steps
             ~where:(fun _ -> false) ()) );
  ]

let test_scalar_walk_flat run kernel () =
  let rng = Prng.of_seed 7 in
  let words steps =
    let minor0 = Gc.minor_words () in
    run kernel rng steps;
    Gc.minor_words () -. minor0
  in
  ignore (words 10);
  let short = words 10 in
  let long = words 10_000 in
  if long > short then
    Alcotest.failf "10^4 steps allocate %.0f minor words, 10 steps %.0f" long
      short

let () =
  Alcotest.run "alloc-discipline"
    [
      ( "dynamic",
        List.map
          (fun (label, run, budget) ->
            Alcotest.test_case (label ^ " stays in budget") `Quick
              (test_probe_budget run budget))
          probes
        @ [
            Alcotest.test_case "continuum stays in budget" `Quick
              test_continuum_budget;
            Alcotest.test_case "clementi stays in budget" `Quick
              test_clementi_budget;
            Alcotest.test_case "population scale stays in budget" `Quick
              test_population_budget;
          ] );
      ( "scalar walks",
        List.concat_map
          (fun (name, run) ->
            List.map
              (fun kernel ->
                Alcotest.test_case
                  (Printf.sprintf "%s (%s) allocates nothing per step" name
                     (Walk.kernel_to_string kernel))
                  `Quick
                  (test_scalar_walk_flat run kernel))
              [ Walk.Lazy_one_fifth; Walk.Simple ])
          scalar_walks );
    ]
