(* The paper's simulator, expressed as the grid instance of the generic
   engine: Grid_space carries the lazy walk and the spatial
   visibility index, Engine carries the step loop, phase timers,
   recording and stopping predicates. This module only adds the
   Config-level API (validation, default step caps). *)

module E = Engine.Make (Grid_space)

type outcome = Engine.outcome =
  | Completed
  | Timed_out

type report = Engine.report = {
  outcome : outcome;
  steps : int;
  informed : int;
  covered : int;
}

type t = {
  cfg : Config.t;
  e : E.t;
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
  { cfg; e = E.create ?metrics ?series ~space (spec_of_config cfg) }

(* --- running -------------------------------------------------------------- *)

let step t = E.step t.e

let is_done t = E.is_done t.e

let run ?on_step t =
  let on_step = Option.map (fun f _e -> f t) on_step in
  E.run ?on_step t.e

let run_config ?on_step ?metrics ?series ?full_rebuild:_ cfg =
  run ?on_step (create ?metrics ?series cfg)

let completion_time cfg =
  let report = run_config cfg in
  match report.outcome with
  | Completed -> Some report.steps
  | Timed_out -> None

(* --- getters ------------------------------------------------------------- *)

let config t = t.cfg

let grid t = Grid_space.grid (E.space t.e)

let time t = E.time t.e

let population t = E.population t.e

let informed_count t = E.informed_count t.e

let check_agent t i =
  if i < 0 || i >= E.population t.e then
    invalid_arg "Simulation: agent index out of range"

let is_informed t i =
  check_agent t i;
  (E.informed t.e).(i)

let rumors_known t i =
  check_agent t i;
  let rumors = E.rumors t.e in
  if Array.length rumors > 0 then Rumor_set.cardinal rumors.(i)
  else if (E.informed t.e).(i) then 1
  else 0

let position t i =
  check_agent t i;
  Grid_space.node_at (E.pos t.e) i

let positions t =
  let pos = E.pos t.e in
  Array.init (Grid_space.agents pos) (Grid_space.node_at pos)

let source t = E.source t.e

let frontier_x t = E.frontier_x t.e

let max_island t = E.max_island t.e

let island_sizes t = E.island_sizes t.e

let covered_count t = E.covered_count t.e

let live_preys t = E.live_preys t.e

let present_count t = E.present_count t.e
