(* Re-export the space instance so engine callers (the service's
   runner, X4, tests) can reach it as [Continuum.Space]. *)
module Space = Continuum_space

let critical_radius ~box_side ~agents =
  if not (box_side > 0.) then invalid_arg "Continuum.critical_radius: box <= 0";
  if agents <= 0 then invalid_arg "Continuum.critical_radius: agents <= 0";
  Mobile_network.Theory.continuum_critical_radius ~box_side ~agents

let giant_fraction rng ~box_side ~agents ~radius ~trials =
  if not (box_side > 0.) then invalid_arg "Continuum.giant_fraction: box <= 0";
  if agents <= 0 then invalid_arg "Continuum.giant_fraction: agents <= 0";
  if trials <= 0 then invalid_arg "Continuum.giant_fraction: trials <= 0";
  (* one index serves every placement; a zero radius, no pairs. The
     agents never move, so any positive sigma does. *)
  let space =
    if radius > 0. then
      Some (Continuum_space.create ~box_side ~radius ~sigma:1. ~agents)
    else None
  in
  let acc = ref 0. in
  for _ = 1 to trials do
    let xs = Array.init agents (fun _ -> Prng.float rng box_side) in
    let ys = Array.init agents (fun _ -> Prng.float rng box_side) in
    let dsu = Dsu.create agents in
    Option.iter
      (fun space ->
        Continuum_space.rebuild_index space { Continuum_space.xs; ys };
        Continuum_space.iter_close_pairs space ~f:(fun i j ->
            ignore (Dsu.union dsu i j)))
      space;
    acc := !acc +. (float_of_int (Dsu.max_set_size dsu) /. float_of_int agents)
  done;
  !acc /. float_of_int trials
