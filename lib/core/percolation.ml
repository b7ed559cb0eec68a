module Make (S : Space.S) = struct
  let largest_island space rng ~agents =
    let pos = S.init_positions space rng ~n:agents in
    S.rebuild_index space pos;
    let dsu = Dsu.create agents in
    S.iter_close_pairs space ~f:(fun i j -> ignore (Dsu.union dsu i j : bool));
    (* nothing is dissolved, so this is the largest set *)
    Dsu.max_union_size dsu

  let giant_fraction space rng ~agents ~trials =
    if agents <= 0 then invalid_arg "Percolation.giant_fraction: agents <= 0";
    if trials <= 0 then invalid_arg "Percolation.giant_fraction: trials <= 0";
    let acc = Stats.Online.create () in
    for _ = 1 to trials do
      Stats.Online.add acc
        (float_of_int (largest_island space rng ~agents) /. float_of_int agents)
    done;
    Stats.Online.mean acc
end

module On_grid = Make (Grid_space)

let giant_fraction_at grid rng ~k ~radius ~trials =
  (* the agents never move, so any kernel does *)
  let space = Grid_space.create grid ~kernel:Walk.Lazy_one_fifth ~radius in
  On_grid.giant_fraction space rng ~agents:k ~trials

let estimate_rc grid rng ~k ~trials =
  let max_radius = 2 * Grid.side grid in
  let rec scan radius =
    if radius > max_radius then max_radius
    else if giant_fraction_at grid rng ~k ~radius ~trials >= 0.5 then radius
    else scan (radius + 1)
  in
  scan 0
