module Engine = Mobile_network.Engine
module E = Engine.Make (Continuum.Space)
module P = Mobile_network.Percolation.Make (Continuum.Space)

let run ?(quick = false) ~seed () =
  let ks = if quick then [ 64; 256 ] else [ 64; 256; 1024 ] in
  let trials = if quick then 3 else 5 in
  let rng = Prng.of_seed (seed + 0x14) in
  let table =
    Table.create
      ~header:
        [ "k"; "box"; "regime"; "r/rc"; "giant frac"; "median T_B" ]
  in
  let above = ref [] and below = ref [] in
  let measure ~k ~mult =
    (* fixed density 1 agent per unit area: box side sqrt k *)
    let box_side = sqrt (float_of_int k) in
    let rc =
      Mobile_network.Theory.continuum_critical_radius ~box_side ~agents:k
    in
    let radius = mult *. rc in
    let space () =
      Continuum.Space.create ~box_side ~radius ~sigma:(radius /. 4.) ~agents:k
    in
    let giant = P.giant_fraction (space ()) rng ~agents:k ~trials:10 in
    let measured =
      Sweep.samples ~trials ~run:(fun ~trial ->
          E.run
            (E.create ~space:(space ())
               (Engine.default_spec ~agents:k ~seed ~trial ~max_steps:500_000)))
    in
    let med = Sweep.median measured.Sweep.times in
    Table.add_row table
      [ Table.cell_int k; Table.cell_float box_side;
        (if mult > 1. then "above r_c" else "below r_c");
        Table.cell_float mult; Table.cell_float giant;
        Table.cell_float med ];
    (* clamp to >= 1 so the log-log fit accepts near-instant floods *)
    (float_of_int k, Float.max 1. med, giant)
  in
  List.iter
    (fun k -> above := measure ~k ~mult:1.15 :: !above)
    ks;
  List.iter
    (fun k -> below := measure ~k ~mult:0.4 :: !below)
    ks;
  let fit_below =
    Stats.Regression.log_log
      (Array.of_list (List.rev_map (fun (k, t, _) -> (k, t)) !below))
  in
  let slope_below = fit_below.Stats.Regression.slope in
  (* above-percolation times are single-digit, so a log-log fit would
     only measure integer noise; check the polylog bound directly *)
  let above_worst_vs_polylog =
    List.fold_left
      (fun acc (k, t, _) -> Float.max acc (t /. (Float.max 1. (log k) ** 2.)))
      0. !above
  in
  let largest_ratio =
    let at_largest pts =
      List.fold_left
        (fun (bk, bt) (k, t, _) -> if k > bk then (k, t) else (bk, bt))
        (0., 0.) pts
    in
    let _, t_above = at_largest !above and _, t_below = at_largest !below in
    t_below /. Float.max 1. t_above
  in
  let figure =
    let pts l = List.rev_map (fun (k, t, _) -> (k, t)) l in
    Ascii_plot.render
      ~title:"Figure X4: T_B vs k across the continuum percolation point"
      ~x_label:"k" ~y_label:"T_B (clamped to >= 1)"
      [
        { Ascii_plot.label = "below r_c (0.4 rc): polynomial"; marker = '*';
          points = pts !below };
        { Ascii_plot.label = "above r_c (1.15 rc): polylog"; marker = 'o';
          points = pts !above };
      ]
  in
  let giant_above =
    List.fold_left (fun acc (_, _, g) -> Float.min acc g) infinity !above
  in
  let giant_below =
    List.fold_left (fun acc (_, _, g) -> Float.max acc g) neg_infinity !below
  in
  {
    Exp_result.id = "X4";
    title = "Continuous-space Brownian model across the percolation point (Peres et al.)";
    claim = "Above the continuum percolation point T_B is polylog in k (Peres et al.); below it, growth is polynomial — the regime this paper's theorems govern";
    table;
    findings =
      [
        Printf.sprintf
          "below r_c: T_B ~ k^%.3f (R^2 = %.3f); above r_c: worst T_B / ln^2 k = %.2f"
          slope_below fit_below.Stats.Regression.r_squared
          above_worst_vs_polylog;
        Printf.sprintf "T_B(below) / T_B(above) at the largest k: %.0fx"
          largest_ratio;
        Printf.sprintf "giant fraction: min above %.2f, max below %.2f"
          giant_above giant_below;
      ];
    figures = [ figure ];
    checks =
      [
        Exp_result.check ~label:"polylog time above percolation"
          ~passed:(above_worst_vs_polylog < 3.)
          ~detail:
            (Printf.sprintf "worst T_B / ln^2 k = %.2f (want < 3)"
               above_worst_vs_polylog);
        Exp_result.check_in_range ~label:"polynomial growth below percolation"
          ~value:slope_below ~lo:0.25 ~hi:0.9;
        Exp_result.check ~label:"regimes separated"
          ~passed:(largest_ratio > 20.)
          ~detail:
            (Printf.sprintf
               "below/above broadcast-time ratio at largest k = %.0fx (want > 20x)"
               largest_ratio);
        Exp_result.check ~label:"percolation order parameter"
          ~passed:(giant_above > 1.5 *. giant_below)
          ~detail:
            (Printf.sprintf
               "giant fraction above (min %.2f) vs below (max %.2f)"
               giant_above giant_below);
      ];
  }
