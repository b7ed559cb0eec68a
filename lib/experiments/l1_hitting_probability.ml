let run ?(quick = false) ~seed () =
  let side = if quick then 96 else 192 in
  let grid = Grid.create ~side () in
  let ds = if quick then [ 2; 4; 8; 16 ] else [ 2; 4; 8; 16; 32 ] in
  let trials = if quick then 300 else 1000 in
  (* one independent stream per (d, trial), in the Config.root_rng idiom:
     trials must be identified by their index alone so that the pooled
     and the sequential sweep draw identical randomness *)
  let rng ~d ~trial =
    Prng.of_seed_trial ~seed:(seed + 0x11) ~trial:((d lsl 20) lxor trial)
  in
  let table =
    Table.create ~header:[ "d"; "T=d^2"; "trials"; "P(hit)"; "P * ln d" ]
  in
  let scaled = ref [] in
  List.iter
    (fun d ->
      let cx = side / 2 and cy = side / 2 in
      let start = Grid.index grid ~x:cx ~y:cy in
      let target = Grid.index grid ~x:(cx + d) ~y:cy in
      let steps = d * d in
      let p =
        Sweep.probability ~trials ~f:(fun ~trial ->
            Walk.hits_within grid Walk.Lazy_one_fifth (rng ~d ~trial) ~start
              ~target ~steps)
      in
      (* P over Lemma 1's shape 1 / max(1, ln d) *)
      let s = p *. (1. /. Mobile_network.Theory.hitting_probability_lower ~d) in
      scaled := s :: !scaled;
      Table.add_row table
        [ Table.cell_int d; Table.cell_int steps; Table.cell_int trials;
          Table.cell_float ~decimals:3 p; Table.cell_float ~decimals:3 s ])
    ds;
  let scaled = List.rev !scaled in
  let smin = List.fold_left Float.min infinity scaled in
  let smax = List.fold_left Float.max neg_infinity scaled in
  {
    Exp_result.id = "L1";
    title = "Single-walk hitting probability within d^2 steps (Lemma 1)";
    claim = "P(visit a node at distance d within d^2 steps) >= c1 / max(1, log d)";
    table;
    findings =
      [
        Printf.sprintf "P * ln d (the implied constant c1) within [%.3f, %.3f]"
          smin smax;
      ];
    figures = [];
    checks =
      [
        Exp_result.check ~label:"logarithmic decay lower bound"
          ~passed:(smin > 0.02)
          ~detail:(Printf.sprintf "min of P * ln d = %.3f (want > 0.02)" smin);
        Exp_result.check ~label:"decay no slower than logarithmic"
          ~passed:(smax /. smin < 10.)
          ~detail:
            (Printf.sprintf "spread of P * ln d = %.2fx (want < 10x)"
               (smax /. smin));
      ];
  }
