module Config = Mobile_network.Config
module Simulation = Mobile_network.Simulation

(* First time the informed count reaches [target], from the recorded
   trajectory. *)
let time_to_reach history target =
  let n = Array.length history in
  let rec scan i =
    if i >= n then n - 1 else if history.(i) >= target then i else scan (i + 1)
  in
  scan 0

let run ?(quick = false) ~seed () =
  let side = if quick then 32 else 48 in
  let ks = if quick then [ 16; 64 ] else [ 16; 32; 64; 128 ] in
  let trials = if quick then 3 else 7 in
  let table =
    Table.create
      ~header:
        [ "k"; "T(10%)"; "T(50%)"; "T(90%)"; "T(100%)"; "tail share" ]
  in
  let t100_points = ref [] and tail_shares = ref [] in
  List.iter
    (fun k ->
      let quantile_times =
        List.init trials (fun trial ->
            let series =
              Sweep.trajectory
                (Config.make ~side ~agents:k ~radius:0 ~seed ~trial ())
                Simulation.informed_count
            in
            Array.map
              (fun pct ->
                let target =
                  max 1 (int_of_float (Float.ceil (pct *. float_of_int k)))
                in
                float_of_int (time_to_reach series target))
              [| 0.1; 0.5; 0.9; 1.0 |])
      in
      let median idx =
        let values =
          Array.of_list (List.map (fun t -> t.(idx)) quantile_times)
        in
        Array.sort Float.compare values;
        values.(trials / 2)
      in
      let t10 = median 0 and t50 = median 1 and t90 = median 2 in
      let t100 = median 3 in
      let tail_share = (t100 -. t90) /. Float.max 1. t100 in
      t100_points := (float_of_int k, t100) :: !t100_points;
      tail_shares := tail_share :: !tail_shares;
      Table.add_row table
        [ Table.cell_int k; Table.cell_float t10; Table.cell_float t50;
          Table.cell_float t90; Table.cell_float t100;
          Table.cell_float ~decimals:2 tail_share ])
    ks;
  let fit = Stats.Regression.log_log (Array.of_list (List.rev !t100_points)) in
  let tail_max = List.fold_left Float.max neg_infinity !tail_shares in
  (* at small k the "last 10%" is a single agent, so individual shares
     are noisy; judge the tail on its average across the sweep *)
  let tail_mean =
    List.fold_left ( +. ) 0. !tail_shares
    /. float_of_int (List.length !tail_shares)
  in
  {
    Exp_result.id = "E14";
    title = "Quantiles of the informed-count trajectory (bulk vs stragglers)";
    claim = "Both the bulk spreading phase and the straggler tail cost a constant fraction of T_B = Theta~(n/sqrt k) — the proof's two phases are both real";
    table;
    findings =
      [
        Printf.sprintf "T(100%%) exponent vs k: %.3f (R^2 = %.3f)"
          fit.Stats.Regression.slope fit.Stats.Regression.r_squared;
        Printf.sprintf
          "share of the run spent informing the last 10%% of agents: mean %.2f, max %.2f"
          tail_mean tail_max;
      ];
    figures = [];
    checks =
      [
        Exp_result.check_in_range ~label:"total time scaling"
          ~value:fit.Stats.Regression.slope ~lo:(-0.9) ~hi:(-0.25);
        Exp_result.check ~label:"straggler tail is substantial"
          ~passed:(tail_mean > 0.08)
          ~detail:
            (Printf.sprintf
               "last 10%% of agents cost %.0f%% of the run on average (want \
                > 8%%)"
               (tail_mean *. 100.));
        Exp_result.check ~label:"bulk phase is substantial too"
          ~passed:(tail_max < 0.9)
          ~detail:
            (Printf.sprintf
               "straggler share at most %.0f%% (want < 90%%: broadcast is \
                not one lucky event)"
               (tail_max *. 100.));
      ];
  }
