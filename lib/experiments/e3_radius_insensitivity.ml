module Config = Mobile_network.Config
module Theory = Mobile_network.Theory

let run ?(quick = false) ~seed () =
  let side = if quick then 32 else 64 in
  let k = if quick then 16 else 32 in
  let n = side * side in
  let rc = Theory.percolation_radius ~n ~k in
  let radii =
    if quick then [ 0; 1; 2; 4; 16 ]
    else [ 0; 1; 2; 3; 4; 6; 8; 11; 16; 23; 32 ]
  in
  let trials = if quick then 5 else 9 in
  let table =
    Table.create
      ~header:
        [ "r"; "r/rc"; "mean T_B"; "median T_B"; "giant frac"; "timeouts" ]
  in
  let grid = Grid.create ~side () in
  let rng = Prng.of_seed (seed + 0xE3) in
  let medians = ref [] in
  List.iter
    (fun radius ->
      let measured =
        Sweep.completion_times ~trials ~cfg:(fun ~trial ->
            Config.make ~side ~agents:k ~radius ~seed ~trial ())
      in
      let mean, _ = Stats.Summary.mean_ci95 measured.times in
      let med = Sweep.median measured.times in
      let giant =
        Mobile_network.Percolation.giant_fraction_at grid rng ~k ~radius
          ~trials:20
      in
      medians := (radius, med) :: !medians;
      Table.add_row table
        [ Table.cell_int radius;
          Table.cell_float (float_of_int radius /. rc);
          Table.cell_float mean; Table.cell_float med;
          Table.cell_float giant; Table.cell_int measured.timeouts ])
    radii;
  let medians = List.rev !medians in
  let median_at r = List.assoc r medians in
  (* flatness below ~ rc/2, collapse above ~ 1.5 rc *)
  let sub = List.filter (fun (r, _) -> float_of_int r <= rc /. 2.) medians in
  let sub_meds = List.map snd sub in
  let flat_ratio =
    List.fold_left Float.max neg_infinity sub_meds
    /. List.fold_left Float.min infinity sub_meds
  in
  let super_r =
    List.fold_left
      (fun acc (r, _) -> if float_of_int r >= 1.4 *. rc then min acc r else acc)
      max_int (List.map (fun (r, m) -> (r, m)) medians)
  in
  let collapse_ratio = median_at 0 /. median_at super_r in
  let est_rc =
    Mobile_network.Percolation.estimate_rc grid rng ~k
      ~trials:(if quick then 5 else 10)
  in
  let figure =
    (* linear radius axis (it includes r = 0), log time axis *)
    Ascii_plot.render ~log_x:false
      ~title:"Figure E3: T_B vs transmission radius (flat below r_c, cliff above)"
      ~x_label:"r" ~y_label:"T_B"
      [
        { Ascii_plot.label = "measured median T_B (clamped to >= 1)";
          marker = '*';
          points =
            List.map
              (fun (r, med) -> (float_of_int r, Float.max 1. med))
              medians };
      ]
  in
  {
    Exp_result.id = "E3";
    title = "Broadcast time vs transmission radius across the percolation point";
    claim = "Below r_c, T_B does not depend on r (Theorems 1-2); above r_c it collapses to polylog (Peres et al.)";
    table;
    findings =
      [
        Printf.sprintf "r_c (theory) = %.2f; estimated percolation radius = %d" rc est_rc;
        Printf.sprintf "max/min of median T_B over r <= r_c/2: %.2f" flat_ratio;
        Printf.sprintf "collapse factor T_B(r=0) / T_B(r=%d) = %.1fx" super_r collapse_ratio;
      ];
    figures = [ figure ];
    checks =
      [
        (* up to one log-ish factor of variation is expected at finite n
           (r = 0 to r ~ r_c/2 buys the point-meeting -> area-meeting
           constant); contrast with the >100x collapse above r_c *)
        (let limit = if quick then 4.5 else 3.5 in
         Exp_result.check ~label:"flat below percolation"
           ~passed:(flat_ratio < limit)
           ~detail:
             (Printf.sprintf "max/min median T_B ratio below r_c/2 = %.2f (want < %.1f)"
                flat_ratio limit));
        Exp_result.check ~label:"collapse above percolation"
          ~passed:(collapse_ratio > 4.)
          ~detail:(Printf.sprintf "T_B(0)/T_B(%d) = %.1f (want > 4)" super_r collapse_ratio);
        Exp_result.check_in_range ~label:"estimated r_c vs sqrt(n/k)"
          ~value:(float_of_int est_rc /. rc) ~lo:0.3 ~hi:3.0;
      ];
  }
