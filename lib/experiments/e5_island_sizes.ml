module Islands = Mobile_network.Percolation.Make (Mobile_network.Grid_space)

let run ?(quick = false) ~seed () =
  let sides = if quick then [ 32; 64 ] else [ 32; 64; 128; 192 ] in
  let density = 64 in
  (* k = n / density *)
  let placements = if quick then 100 else 300 in
  let rng = Prng.of_seed (seed + 0xE5) in
  let table =
    Table.create
      ~header:
        [ "side"; "n"; "k"; "r=rc/2"; "mean max island"; "p95 max island";
          "ln n"; "p95 / ln n"; "giant frac @ 2rc" ]
  in
  let ratios = ref [] and giants = ref [] in
  List.iter
    (fun side ->
      let n = side * side in
      let k = n / density in
      let rc = Mobile_network.Theory.percolation_radius ~n ~k in
      let sub_r = max 1 (int_of_float (rc /. 2.)) in
      let super_r = int_of_float (2. *. rc) in
      let grid = Grid.create ~side () in
      let space =
        Mobile_network.Grid_space.create grid ~kernel:Walk.Lazy_one_fifth
          ~radius:sub_r
      in
      let maxima =
        Array.init placements (fun _ ->
            float_of_int (Islands.largest_island space rng ~agents:k))
      in
      let summary = Stats.Summary.of_array maxima in
      let p95 = Stats.Summary.quantile maxima ~q:0.95 in
      let lnn = log (float_of_int n) in
      let giant =
        Mobile_network.Percolation.giant_fraction_at grid rng ~k ~radius:super_r
          ~trials:20
      in
      ratios := p95 /. lnn :: !ratios;
      giants := giant :: !giants;
      Table.add_row table
        [ Table.cell_int side; Table.cell_int n; Table.cell_int k;
          Table.cell_int sub_r; Table.cell_float summary.Stats.Summary.mean;
          Table.cell_float p95; Table.cell_float lnn;
          Table.cell_float (p95 /. lnn); Table.cell_float giant ])
    sides;
  (* !ratios is reversed: head = largest n *)
  let r_largest = List.hd !ratios in
  let r_smallest = List.nth !ratios (List.length !ratios - 1) in
  let growth = r_largest /. r_smallest in
  let worst = List.fold_left Float.max neg_infinity !ratios in
  let giant_largest = List.hd !giants in
  {
    Exp_result.id = "E5";
    title = "Largest island vs n at fixed density, r = rc/2 (Lemma 6)";
    claim = "Below the percolation point, no island exceeds O(log n) agents w.h.p.";
    table;
    findings =
      [
        Printf.sprintf
          "p95 max-island / ln n across n: worst %.2f, growth smallest->largest n: %.2fx"
          worst growth;
        "per-step island statistics sampled as fresh uniform placements \
         (valid because the lazy walk is uniform-stationary)";
      ];
    figures = [];
    checks =
      [
        Exp_result.check ~label:"island size stays O(log n)"
          ~passed:(growth < 2.0)
          ~detail:
            (Printf.sprintf
               "p95/ln n grew %.2fx from smallest to largest n (want < 2x: \
                logarithmic, not polynomial)"
               growth);
        Exp_result.check ~label:"giant component above percolation"
          ~passed:(giant_largest > 0.3)
          ~detail:
            (Printf.sprintf
               "giant fraction at r = 2 rc on largest grid = %.2f (want > 0.3)"
               giant_largest);
        Exp_result.check ~label:"absolute island bound"
          ~passed:(worst < 4.)
          ~detail:
            (Printf.sprintf "worst p95/ln n = %.2f (want < 4: small constant)"
               worst);
      ];
  }
