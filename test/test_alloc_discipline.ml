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

let grid_run ?series ?(side = 64) ?radius ?protocol ?exchange
    ?(max_steps = 2000) () =
  (Simulation.run_config ?series
     (Config.make ~side ~agents:64 ?radius ?protocol ?exchange ~seed:7
        ~max_steps ()))
    .Simulation.steps

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

let continuum_run () =
  (Continuum.broadcast
     { Continuum.box_side = 16.; agents = 256; radius = 1.2; sigma = 0.3;
       seed = 7; trial = 0; max_steps = 500 })
    .Mobile_network.Engine.steps

let clementi_run () =
  (Baselines.Clementi.broadcast
     { Baselines.Clementi.side = 48; agents = 1152; big_r = 4; rho = 4;
       seed = 7; trial = 0; max_steps = 4800 })
    .Mobile_network.Engine.steps

(* the floor plan is built once, so only the run is measured *)
let barrier_run =
  let domain = Barriers.Domain.central_wall (Grid.create ~side:40 ()) ~gap:2 in
  fun () ->
    (Barriers.Barrier_sim.broadcast
       { Barriers.Barrier_sim.domain; agents = 24; radius = 4;
         los_blocking = true; seed = 7; trial = 0; max_steps = 20_000 })
      .Mobile_network.Engine.steps

let plus_words measured = measured +. 8.
let plus_percent measured = measured *. 1.02

(* (label, one whole run returning its step count, budget in minor
   words/step); each budget is built from the words/step measured when
   it was set. *)
let probes =
  [
    (* side 64, k 64, r 0; measured ~2 *)
    ("headline probe", (fun () -> grid_run ()), 10.0);
    ("r=8", (fun () -> grid_run ~radius:8 ()), plus_words 51.8);
    (* the headline run with a recording tracer / a series recorder *)
    ("traced", traced_run, plus_words 26.2);
    ("series", series_run, plus_words 21.6);
    (* side 32, k 64, r 2 *)
    ("gossip flood", (fun () -> gossip_run ()), plus_words 25.5);
    ("gossip single-hop", gossip_run ~exchange:Config.Single_hop,
     plus_words 41.2);
    (* k 256, box 16, r 1.2 *)
    ("continuum", continuum_run, plus_percent 6972.7);
    (* side 48, k 1152, R 4 *)
    ("clementi", clementi_run, plus_percent 6016.6);
    (* side 40, k 24, central wall with gap 2, line of sight *)
    ("barrier", barrier_run, plus_words 8.9);
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
   step-capped window that cannot complete. Set-up allocates ~46 words
   per agent (streams, index scratch); the steady state must allocate
   nothing, so the budget is one word per step — room for the
   measurement itself, none for a per-agent or per-bucket allocation. *)
let population_budget_words_per_step = 1.0

let test_population_budget () =
  let sim =
    Simulation.create
      (Config.make ~side:1024 ~agents:65536 ~radius:0 ~seed:7 ~max_steps:60 ())
  in
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
  Alcotest.(check bool) "window still running" false (Simulation.is_done sim);
  if per_step > population_budget_words_per_step then
    Alcotest.failf
      "population-scale step allocates %.2f minor words/step (budget %.1f)"
      per_step population_budget_words_per_step

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
            Alcotest.test_case "population scale stays in budget" `Quick
              test_population_budget;
          ] );
    ]
