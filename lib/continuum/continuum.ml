module Engine = Mobile_network.Engine

(* Re-export the space instance so engine-generic callers (the CLI's
   [simulate --space continuum], tests) can reach it as
   [Continuum.Space]. *)
module Space = Continuum_space

module E = Engine.Make (Continuum_space)

type config = {
  box_side : float;
  agents : int;
  radius : float;
  sigma : float;
  seed : int;
  trial : int;
  max_steps : int;
}

let critical_radius ~box_side ~agents =
  if not (box_side > 0.) then invalid_arg "Continuum.critical_radius: box <= 0";
  if agents <= 0 then invalid_arg "Continuum.critical_radius: agents <= 0";
  Mobile_network.Theory.continuum_critical_radius ~box_side ~agents

let components ~box_side ~radius ~xs ~ys =
  let k = Array.length xs in
  let dsu = Dsu.create k in
  if radius > 0. && k > 0 then begin
    let space = Continuum_space.create ~box_side ~radius ~sigma:0. ~agents:k in
    Continuum_space.rebuild_index space { Continuum_space.xs; ys };
    Continuum_space.iter_close_pairs space ~f:(fun i j ->
        ignore (Dsu.union dsu i j))
  end;
  dsu

let giant_fraction rng ~box_side ~agents ~radius ~trials =
  if trials <= 0 then invalid_arg "Continuum.giant_fraction: trials <= 0";
  let acc = ref 0. in
  for _ = 1 to trials do
    let xs = Array.init agents (fun _ -> Prng.float rng box_side) in
    let ys = Array.init agents (fun _ -> Prng.float rng box_side) in
    let dsu = components ~box_side ~radius ~xs ~ys in
    acc := !acc +. (float_of_int (Dsu.max_set_size dsu) /. float_of_int agents)
  done;
  !acc /. float_of_int trials

let validate cfg =
  if not (cfg.box_side > 0.) then invalid_arg "Continuum.broadcast: box <= 0";
  if cfg.agents <= 0 then invalid_arg "Continuum.broadcast: agents <= 0";
  if not (cfg.sigma > 0.) then invalid_arg "Continuum.broadcast: sigma <= 0";
  if cfg.radius < 0. then invalid_arg "Continuum.broadcast: negative radius";
  if cfg.max_steps < 0 then invalid_arg "Continuum.broadcast: negative cap"

let space_of_config cfg =
  Continuum_space.create ~box_side:cfg.box_side ~radius:cfg.radius
    ~sigma:cfg.sigma ~agents:cfg.agents

let spec_of_config cfg =
  Engine.default_spec ~agents:cfg.agents ~seed:cfg.seed ~trial:cfg.trial
    ~max_steps:cfg.max_steps

(* the theory residual's n for a continuum box: its area, the analogue
   of the grid's side^2 node count *)
let theory_n cfg = int_of_float (Float.round (cfg.box_side *. cfg.box_side))

let create ?metrics ?series cfg =
  validate cfg;
  E.create ?metrics ?series ~theory_n:(theory_n cfg)
    ~space:(space_of_config cfg) (spec_of_config cfg)

let broadcast ?metrics ?series cfg = E.run (create ?metrics ?series cfg)
