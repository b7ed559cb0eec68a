module C = Baselines.Clementi
module Config = Mobile_network.Config

let run ?(quick = false) ~seed () =
  let side = if quick then 32 else 48 in
  let n = side * side in
  let trials = if quick then 3 else 7 in
  let table =
    Table.create
      ~header:[ "system"; "radius"; "median T_B"; "sqrt(n)/R" ]
  in
  (* dense baseline: k = n/2 agents, jump radius = R *)
  let dense_k = n / 2 in
  let rs = if quick then [ 2; 4; 8 ] else [ 2; 4; 8; 16 ] in
  let dense_points =
    List.map
      (fun big_r ->
        let measured =
          Sweep.samples ~trials ~run:(fun ~trial ->
              C.broadcast
                { C.side; agents = dense_k; big_r; rho = big_r; seed; trial;
                  max_steps = 100 * side })
        in
        let med = Sweep.median measured.Sweep.times in
        Table.add_row table
          [ "dense baseline (Clementi et al.)"; Table.cell_int big_r;
            Table.cell_float med;
            Table.cell_float (sqrt (float_of_int n) /. float_of_int big_r) ];
        (float_of_int big_r, med))
      rs
  in
  (* the paper's sparse model over the same radii, all below r_c *)
  let sparse_k = if quick then 16 else 32 in
  let rc = Mobile_network.Theory.percolation_radius ~n ~k:sparse_k in
  let sparse_rs = List.filter (fun r -> float_of_int r < rc /. 2.) (0 :: rs) in
  let sparse_points =
    List.map
      (fun radius ->
        let measured =
          Sweep.completion_times ~trials ~cfg:(fun ~trial ->
              Config.make ~side ~agents:sparse_k ~radius ~seed ~trial ())
        in
        let med = Sweep.median measured.times in
        Table.add_row table
          [ "sparse (this paper)"; Table.cell_int radius;
            Table.cell_float med; "-" ];
        (float_of_int (max 1 radius), med))
      sparse_rs
  in
  let figure =
    Ascii_plot.render
      ~title:"Figure X2: T_B vs radius — dense baseline falls, sparse model barely moves"
      ~x_label:"radius" ~y_label:"T_B (clamped to >= 1)"
      [
        { Ascii_plot.label = "dense baseline (k = n/2), T_B ~ sqrt(n)/R";
          marker = 'o';
          points = List.map (fun (r, t) -> (r, Float.max 1. t)) dense_points };
        { Ascii_plot.label = "sparse (this paper), r < r_c"; marker = '*';
          points = List.map (fun (r, t) -> (r, Float.max 1. t)) sparse_points };
      ]
  in
  let dense_fit = Stats.Regression.log_log (Array.of_list dense_points) in
  let sparse_meds = List.map snd sparse_points in
  let sparse_spread =
    List.fold_left Float.max neg_infinity sparse_meds
    /. List.fold_left Float.min infinity sparse_meds
  in
  let dense_spread =
    let meds = List.map snd dense_points in
    List.fold_left Float.max neg_infinity meds
    /. List.fold_left Float.min infinity meds
  in
  {
    Exp_result.id = "X2";
    title = "Dense baseline vs the paper's sparse regime: who depends on the radius";
    claim = "Dense systems (k = Theta(n)) broadcast in Theta(sqrt n / R) — radius-bound; below the percolation point the radius dependence disappears (the paper's headline)";
    table;
    findings =
      [
        Printf.sprintf
          "dense baseline exponent of T_B in R: %.3f (R^2 = %.3f)"
          dense_fit.Stats.Regression.slope dense_fit.Stats.Regression.r_squared;
        Printf.sprintf
          "spread of T_B over the radius sweep: dense %.1fx, sparse %.1fx"
          dense_spread sparse_spread;
      ];
    figures = [ figure ];
    checks =
      [
        Exp_result.check_in_range ~label:"dense T_B ~ sqrt(n)/R"
          ~value:dense_fit.Stats.Regression.slope ~lo:(-1.5) ~hi:(-0.6);
        Exp_result.check ~label:"radius matters when dense"
          ~passed:(dense_spread > 2.5)
          ~detail:
            (Printf.sprintf "dense spread %.1fx (want > 2.5x)" dense_spread);
        Exp_result.check ~label:"radius barely matters when sparse"
          ~passed:(sparse_spread < 0.75 *. dense_spread)
          ~detail:
            (Printf.sprintf
               "sparse spread %.1fx vs dense %.1fx (want sparse < 0.75 dense)"
               sparse_spread dense_spread);
      ];
  }
