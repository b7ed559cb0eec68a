module Config = Mobile_network.Config
module Simulation = Mobile_network.Simulation

(* Max frontier advance over any window of [w] steps, restricted to the
   pre-saturation prefix of the series. *)
let max_advance frontier ~w ~horizon =
  let best = ref 0 in
  for t = 0 to horizon - w - 1 do
    let adv = frontier.(t + w) - frontier.(t) in
    if adv > !best then best := adv
  done;
  !best

let run ?(quick = false) ~seed () =
  let side = if quick then 64 else 128 in
  let k = if quick then 32 else 64 in
  let trials = if quick then 2 else 3 in
  let windows = if quick then [ 16; 64; 256 ] else [ 16; 64; 256; 1024 ] in
  let table =
    Table.create
      ~header:[ "window w"; "max advance"; "advance/w"; "advance/sqrt(w)" ]
  in
  (* collect per-trial frontier series; use the run with the longest
     pre-saturation phase so every window size has data *)
  let series =
    List.init trials (fun trial ->
        Sweep.trajectory
          (Config.make ~side ~agents:k ~radius:0 ~seed ~trial ())
          Simulation.frontier_x)
  in
  (* saturation time: first index where the frontier reaches the border *)
  let horizon frontier =
    let limit = side - 1 in
    let n = Array.length frontier in
    let rec scan i = if i >= n || frontier.(i) >= limit then i else scan (i + 1) in
    scan 0
  in
  let points = ref [] in
  List.iter
    (fun w ->
      let best =
        List.fold_left
          (fun acc frontier ->
            let h = horizon frontier in
            if h > w + 1 then max acc (max_advance frontier ~w ~horizon:h)
            else acc)
          0 series
      in
      points := (float_of_int w, float_of_int (max 1 best)) :: !points;
      Table.add_row table
        [ Table.cell_int w; Table.cell_int best;
          Table.cell_float ~decimals:3 (float_of_int best /. float_of_int w);
          Table.cell_float ~decimals:3
            (float_of_int best /. sqrt (float_of_int w)) ])
    windows;
  let fit = Stats.Regression.log_log (Array.of_list (List.rev !points)) in
  {
    Exp_result.id = "E6";
    title = "Frontier advance vs window length (Lemma 7)";
    claim = "The informed frontier moves diffusively: max advance over w steps ~ sqrt(w) polylog, never ~ w";
    table;
    findings =
      [
        Printf.sprintf
          "fitted exponent of max advance in window length: %.3f (diffusive = 0.5, ballistic = 1.0)"
          fit.Stats.Regression.slope;
        Printf.sprintf "side=%d k=%d trials=%d" side k trials;
      ];
    figures = [];
    checks =
      [
        Exp_result.check_in_range ~label:"sub-ballistic frontier"
          ~value:fit.Stats.Regression.slope ~lo:0.2 ~hi:0.85;
      ];
  }
