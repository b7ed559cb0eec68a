(* The paper's simulator is the grid instance of the generic engine:
   Grid_space carries the lazy walk and the spatial visibility index,
   Engine carries the step loop, phase timers, recording and stopping
   predicates. This module adds the Config-level entry points
   (validation, default step caps) and the grid's agent accessors. *)

include Engine.Make (Grid_space)

type outcome = Engine.outcome =
  | Completed
  | Timed_out

type report = Engine.report = {
  outcome : outcome;
  steps : int;
  informed : int;
  covered : int;
}

let spec_of_config cfg =
  {
    Engine.agents = cfg.Config.agents;
    protocol = cfg.Config.protocol;
    exchange = cfg.Config.exchange;
    seed = cfg.Config.seed;
    trial = cfg.Config.trial;
    source = cfg.Config.source;
    sources = cfg.Config.sources;
    max_steps = Config.effective_max_steps cfg;
    faults = cfg.Config.faults;
  }

let create ?metrics ?series ?full_rebuild:_ cfg =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Simulation.create: " ^ msg));
  let grid =
    Grid.create
      ~topology:(if cfg.Config.torus then Grid.Torus else Grid.Bounded)
      ~side:cfg.Config.side ()
  in
  let space =
    Grid_space.create grid ~kernel:cfg.Config.kernel ~radius:cfg.Config.radius
  in
  create ?metrics ?series ~space (spec_of_config cfg)

let run_config ?on_step ?metrics ?series ?full_rebuild:_ cfg =
  run ?on_step (create ?metrics ?series cfg)

let grid t = Grid_space.grid (space t)

let check_agent t i =
  if i < 0 || i >= population t then
    invalid_arg "Simulation: agent index out of range"

let is_informed t i =
  check_agent t i;
  (informed t).(i)

let position t i =
  check_agent t i;
  Grid_space.node_at (pos t) i

let positions t =
  let pos = pos t in
  Array.init (Grid_space.agents pos) (Grid_space.node_at pos)
