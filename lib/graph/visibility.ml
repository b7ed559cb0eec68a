type snapshot = {
  component_of : Dsu.t;
  edge_count : int;
}

let snapshot grid ~radius ~positions =
  let k = Array.length positions in
  let dsu = Dsu.create k in
  let index = Spatial.create grid ~radius in
  let coords f =
    let v = Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout k in
    Array.iteri
      (fun i node -> Bigarray.Array1.set v i (Int32.of_int (f node)))
      positions;
    v
  in
  ignore
    (Spatial.rebuild_soa index ~xs:(coords (Grid.x_of grid))
       ~ys:(coords (Grid.y_of grid)) ~n:k
      : Spatial.update);
  let edges = ref 0 in
  Spatial.iter_close_pairs index ~f:(fun i j ->
      incr edges;
      ignore (Dsu.union dsu i j));
  { component_of = dsu; edge_count = !edges }

let component_sizes dsu =
  let sizes = ref [] in
  Dsu.iter_sets dsu ~f:(fun ~representative:_ ~members ->
      sizes := List.length members :: !sizes);
  Array.of_list !sizes

let max_component_size dsu = Dsu.max_set_size dsu

let giant_fraction dsu =
  let k = Dsu.length dsu in
  if k = 0 then 0. else float_of_int (Dsu.max_set_size dsu) /. float_of_int k

let mean_component_size dsu =
  let k = Dsu.length dsu in
  if k = 0 then 0.
  else float_of_int k /. float_of_int (Dsu.set_count dsu)

module Percolation = struct
  let rc_theory ~n ~k =
    if n <= 0 || k <= 0 then invalid_arg "Percolation.rc_theory: n, k > 0";
    sqrt (float_of_int n /. float_of_int k)

  let sub_critical_radius ~n ~k =
    if n <= 0 || k <= 0 then
      invalid_arg "Percolation.sub_critical_radius: n, k > 0";
    sqrt (float_of_int n /. (64. *. exp 6. *. float_of_int k))

  let island_parameter ~n ~k =
    if n <= 0 || k <= 0 then
      invalid_arg "Percolation.island_parameter: n, k > 0";
    sqrt (float_of_int n /. (4. *. exp 6. *. float_of_int k))

  let uniform_positions grid rng k =
    Array.init k (fun _ -> Grid.random_node grid rng)

  let giant_fraction_at grid rng ~k ~radius ~trials =
    if trials <= 0 then
      invalid_arg "Percolation.giant_fraction_at: trials > 0";
    let acc = Stats.Online.create () in
    for _ = 1 to trials do
      let positions = uniform_positions grid rng k in
      let { component_of; _ } = snapshot grid ~radius ~positions in
      Stats.Online.add acc (giant_fraction component_of)
    done;
    Stats.Online.mean acc

  let estimate_rc grid rng ~k ~trials ?(target = 0.5) () =
    if not (target > 0. && target <= 1.) then
      invalid_arg "Percolation.estimate_rc: target out of (0, 1]";
    let max_radius = 2 * Grid.side grid in
    let rec scan radius =
      if radius > max_radius then max_radius
      else if giant_fraction_at grid rng ~k ~radius ~trials >= target then
        radius
      else scan (radius + 1)
    in
    scan 0
end
