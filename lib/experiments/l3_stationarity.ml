let run ?(quick = false) ~seed () =
  let side = 8 in
  let grid = Grid.create ~side () in
  let n = Grid.nodes grid in
  let walkers = if quick then 30_000 else 100_000 in
  let checkpoints = if quick then [ 1; 16; 64 ] else [ 1; 4; 16; 64; 256 ] in
  let rng = Prng.of_seed (seed + 0x15) in
  let confidence = 0.999 in
  let critical =
    Stats.Chi_square.critical_value ~df:(n - 1) ~confidence
  in
  let table =
    Table.create
      ~header:[ "kernel"; "t"; "chi^2"; "critical (99.9%)"; "uniform?" ]
  in
  (* one pass per kernel: walk each walker from checkpoint to checkpoint
     (ascending), counting positions at each *)
  let sample kernel =
    let counts = List.map (fun t -> (t, Array.make n 0)) checkpoints in
    for _ = 1 to walkers do
      let pos = ref (Grid.random_node grid rng) and t0 = ref 0 in
      List.iter
        (fun (t, c) ->
          pos := Walk.advance grid kernel rng !pos ~steps:(t - !t0);
          t0 := t;
          c.(!pos) <- c.(!pos) + 1)
        counts
    done;
    List.map
      (fun (t, c) ->
        let stat = Stats.Chi_square.uniform_statistic c in
        Table.add_row table
          [ Walk.kernel_to_string kernel; Table.cell_int t;
            Table.cell_float stat; Table.cell_float critical;
            Table.cell_bool (stat <= critical) ];
        stat)
      counts
  in
  let lazy_stats = sample Walk.Lazy_one_fifth in
  let simple_stats = sample Walk.Simple in
  let lazy_ok = List.for_all (fun s -> s <= critical) lazy_stats in
  (* the simple walk's bias shows once walkers have met the border;
     early checkpoints may still look uniform *)
  let simple_fails_eventually =
    List.exists (fun s -> s > critical) simple_stats
  in
  {
    Exp_result.id = "L3";
    title = "Uniform stationarity of the lazy walk (chi-square, §2)";
    claim = "Under the lazy 1/5 kernel agents remain uniformly distributed at every step; the plain SRW does not (degree-biased stationary law)";
    table;
    findings =
      [
        Printf.sprintf
          "lazy kernel: max chi^2 %.1f vs critical %.1f over %d checkpoints"
          (List.fold_left Float.max neg_infinity lazy_stats)
          critical (List.length checkpoints);
        Printf.sprintf "simple kernel: max chi^2 %.1f (border bias)"
          (List.fold_left Float.max neg_infinity simple_stats);
      ];
    figures = [];
    checks =
      [
        Exp_result.check ~label:"lazy walk stays uniform"
          ~passed:lazy_ok
          ~detail:
            (Printf.sprintf "all %d checkpoints below the 99.9%% critical value"
               (List.length checkpoints));
        Exp_result.check ~label:"simple walk drifts from uniform"
          ~passed:simple_fails_eventually
          ~detail:"at least one checkpoint rejects uniformity";
      ];
  }
