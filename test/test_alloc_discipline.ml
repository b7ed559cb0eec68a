(* Dynamic cross-check of the static alloc-discipline pass: the lint
   proves the hot path is structurally allocation-free (modulo justified
   [@alloc_ok] sites); this test measures it. The headline perf_probe
   config must stay within a small minor-heap budget per step — if an
   unjustified allocation sneaks past the analyzer (e.g. through a
   functor boundary it cannot see), this trips even though mobilint
   stays green. *)

module Config = Mobile_network.Config
module Simulation = Mobile_network.Simulation

(* headline probe: "core broadcast side=64 k=64 r=0" (~2 words/step);
   the bound leaves the same slack bench-check applies (8 words/step)
   so a GC-timing wobble cannot flake the suite *)
let budget_words_per_step = 10.0

let run () =
  (Simulation.run_config
     (Config.make ~side:64 ~agents:64 ~radius:0 ~seed:7 ~max_steps:2000 ()))
    .Simulation.steps

let test_headline_budget () =
  ignore (run ());
  (* warmup: grow-once scratch, lazy tables *)
  let minor0 = Gc.minor_words () in
  let steps = ref 0 in
  for _ = 1 to 5 do
    steps := !steps + run ()
  done;
  let words = Gc.minor_words () -. minor0 in
  let per_step = words /. float_of_int (max 1 !steps) in
  if per_step > budget_words_per_step then
    Alcotest.failf
      "hot path allocates %.1f minor words/step (budget %.1f over %d steps)"
      per_step budget_words_per_step !steps

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
        [
          Alcotest.test_case "headline probe stays in budget" `Quick
            test_headline_budget;
          Alcotest.test_case "population scale stays in budget" `Quick
            test_population_budget;
        ] );
    ]
