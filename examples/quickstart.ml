(* Quickstart: simulate one rumor broadcast among mobile agents and
   compare the measured broadcast time with the paper's Theta~(n/sqrt k).

   Run with: dune exec examples/quickstart.exe *)

module Config = Mobile_network.Config
module Engine = Mobile_network.Engine
module Simulation = Mobile_network.Simulation
module Theory = Mobile_network.Theory

let () =
  (* 64 agents walking on a 64 x 64 grid, talking only on contact (r=0) *)
  let side = 64 and agents = 64 in
  let cfg = Config.make ~side ~agents ~radius:0 ~seed:2026 () in

  Printf.printf "sparse mobile network quickstart\n";
  Printf.printf "  grid:   %dx%d (n = %d nodes)\n" side side (Config.n cfg);
  Printf.printf "  agents: k = %d, transmission radius r = %d\n" agents
    cfg.Config.radius;
  Printf.printf "  percolation radius r_c = sqrt(n/k) = %.1f -> %s\n\n"
    (Config.percolation_radius cfg)
    (if Config.is_subcritical cfg then "sparse (sub-critical) regime"
     else "super-critical regime");

  (* watch the rumor spread *)
  let on_step sim =
    let t = Simulation.time sim in
    if t mod 500 = 0 then
      Printf.printf "  t = %5d: %3d of %d agents informed\n" t
        (Simulation.informed_count sim)
        agents
  in
  let report = Simulation.run_config ~on_step cfg in

  let theory = Theory.broadcast_theta ~n:(Config.n cfg) ~k:agents in
  (match report.Engine.outcome with
  | Engine.Completed ->
      Printf.printf "\nbroadcast completed: T_B = %d steps\n"
        report.Engine.steps
  | Engine.Timed_out ->
      Printf.printf "\nhit the step cap after %d steps\n"
        report.Engine.steps);
  Printf.printf "paper's shape n/sqrt(k) = %.0f  (measured/theory = %.2f, \
                 the gap is the Theta~ polylog factor)\n"
    theory
    (float_of_int report.Engine.steps /. theory)
