module Engine = Mobile_network.Engine
module Exchange = Mobile_network.Exchange
module Grid_space = Mobile_network.Grid_space

module E = Engine.Make (Grid_space)

type config = {
  side : int;
  agents : int;
  big_r : int;
  rho : int;
  seed : int;
  trial : int;
  max_steps : int;
}

type outcome =
  | Completed
  | Timed_out

type report = {
  outcome : outcome;
  steps : int;
  informed : int;
}

(* One transition of the jump kernel, kept as a named entry point for
   the walk-statistics tests; the simulator itself runs [Walk.Jump]
   through the shared engine. *)
let jump grid rng rho v = Walk.step grid (Walk.Jump rho) rng v

let validate cfg =
  if cfg.side <= 0 then invalid_arg "Clementi.broadcast: side <= 0";
  if cfg.agents <= 0 then invalid_arg "Clementi.broadcast: agents <= 0";
  if cfg.big_r < 0 || cfg.rho < 0 then
    invalid_arg "Clementi.broadcast: negative radius";
  if cfg.max_steps < 0 then invalid_arg "Clementi.broadcast: negative cap"

let space_of_config cfg =
  Grid_space.create
    (Grid.create ~side:cfg.side ())
    ~kernel:(Walk.Jump cfg.rho) ~radius:cfg.big_r

(* Their exchange is one-hop: every agent within R of an informed agent
   learns the rumor this step, based on pre-step knowledge — the
   engine's Single_hop mechanism. *)
let spec_of_config cfg =
  {
    (Engine.default_spec ~agents:cfg.agents ~seed:cfg.seed ~trial:cfg.trial
       ~max_steps:cfg.max_steps)
    with
    Engine.exchange = Exchange.Single_hop;
    (* dense regime: the pair set is huge and their model has no island
       statistic, so skip the per-pair component build *)
    track_islands = false;
  }

let create ?metrics ?series cfg =
  validate cfg;
  E.create ?metrics ?series ~space:(space_of_config cfg) (spec_of_config cfg)

let report_of (r : Engine.report) =
  {
    outcome =
      (match r.Engine.outcome with
      | Engine.Completed -> Completed
      | Engine.Timed_out -> Timed_out);
    steps = r.Engine.steps;
    informed = r.Engine.informed;
  }

let broadcast ?metrics ?series cfg =
  report_of (E.run (create ?metrics ?series cfg))
