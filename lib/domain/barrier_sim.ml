module Engine = Mobile_network.Engine

module E = Engine.Make (Domain_space)

type config = {
  domain : Domain.t;
  agents : int;
  radius : int;
  los_blocking : bool;
  seed : int;
  trial : int;
  max_steps : int;
}

let validate cfg =
  if cfg.agents <= 0 then invalid_arg "Barrier_sim.broadcast: agents <= 0";
  if cfg.radius < 0 then invalid_arg "Barrier_sim.broadcast: negative radius";
  if cfg.max_steps < 0 then
    invalid_arg "Barrier_sim.broadcast: negative max_steps";
  if Domain.free_count cfg.domain = 0 then
    invalid_arg "Barrier_sim.broadcast: domain has no free node"

let space_of_config cfg =
  Domain_space.create cfg.domain ~radius:cfg.radius
    ~los_blocking:cfg.los_blocking

(* same (seed, trial) mixing discipline as the core engine — supplied by
   Engine.create via Prng.mix_seed *)
let spec_of_config cfg =
  Engine.default_spec ~agents:cfg.agents ~seed:cfg.seed ~trial:cfg.trial
    ~max_steps:cfg.max_steps

let create ?metrics ?series cfg =
  validate cfg;
  (* the theory residual's n: reachable (free) nodes, not the full grid *)
  E.create ?metrics ?series ~theory_n:(Domain.free_count cfg.domain)
    ~space:(space_of_config cfg) (spec_of_config cfg)

let broadcast ?metrics ?series cfg = E.run (create ?metrics ?series cfg)
