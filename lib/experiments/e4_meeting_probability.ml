let run ?(quick = false) ~seed () =
  let side = if quick then 96 else 192 in
  let grid = Grid.create ~side () in
  let ds = if quick then [ 2; 4; 8; 16 ] else [ 2; 4; 8; 16; 32 ] in
  let trials = if quick then 600 else 2000 in
  (* one independent stream per (d, trial), in the Config.root_rng idiom:
     trials must be identified by their index alone so that the pooled
     and the sequential sweep draw identical randomness *)
  let rng ~d ~trial =
    Prng.of_seed_trial ~seed:(seed + 0xE4) ~trial:((d lsl 20) lxor trial)
  in
  let table =
    Table.create ~header:[ "d"; "T=d^2"; "trials"; "P(meet in D)"; "P * ln d" ]
  in
  let scaled = ref [] in
  List.iter
    (fun d ->
      (* symmetric placement around the centre, distance exactly d *)
      let cx = side / 2 and cy = side / 2 in
      let a = Grid.index grid ~x:(cx - (d / 2)) ~y:cy in
      let b = Grid.index grid ~x:(cx - (d / 2) + d) ~y:cy in
      let in_lens = Walk.meeting_disk grid ~a ~b in
      let steps = d * d in
      let p =
        Sweep.probability ~trials ~f:(fun ~trial ->
            match
              Walk.first_meeting grid Walk.Lazy_one_fifth (rng ~d ~trial) ~a
                ~b ~steps ~where:in_lens ()
            with
            | Some _ -> true
            | None -> false)
      in
      (* P over Lemma 3's shape 1 / max(1, ln d) *)
      let s = p *. (1. /. Mobile_network.Theory.meeting_probability_lower ~d) in
      scaled := s :: !scaled;
      Table.add_row table
        [ Table.cell_int d; Table.cell_int steps; Table.cell_int trials;
          Table.cell_float ~decimals:3 p; Table.cell_float ~decimals:3 s ])
    ds;
  let scaled = List.rev !scaled in
  let smin = List.fold_left Float.min infinity scaled in
  let smax = List.fold_left Float.max neg_infinity scaled in
  {
    Exp_result.id = "E4";
    title = "Two-walk meeting probability within d^2 steps (Lemma 3)";
    claim = "P(walks at distance d meet inside the lens D within d^2 steps) >= c3 / log d";
    table;
    findings =
      [
        Printf.sprintf
          "P * ln d (the implied constant c3) stays within [%.3f, %.3f]" smin smax;
      ];
    figures = [];
    checks =
      [
        Exp_result.check ~label:"logarithmic decay lower bound"
          ~passed:(smin > 0.03)
          ~detail:(Printf.sprintf "min of P * ln d = %.3f (want > 0.03)" smin);
        Exp_result.check ~label:"scaled probability bounded (no slower than log)"
          ~passed:(smax /. smin < 8.)
          ~detail:
            (Printf.sprintf "spread of P * ln d = %.2fx (want < 8x)"
               (smax /. smin));
      ];
  }
