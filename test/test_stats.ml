(* Tests for the statistics library: online moments, summaries,
   regression and bootstrap intervals. *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.9g vs %.9g" msg expected actual)
    true (feq ~eps expected actual)

(* --- Online --- *)

let test_online_empty () =
  let acc = Stats.Online.create () in
  check_float "mean" 0. (Stats.Online.mean acc);
  check_float "variance" 0. (Stats.Online.variance acc)

let test_online_known_values () =
  let acc = Stats.Online.create () in
  List.iter (Stats.Online.add acc) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_float "mean" 5. (Stats.Online.mean acc);
  (* sample variance of this classic dataset is 32/7 *)
  check_float ~eps:1e-12 "variance" (32. /. 7.) (Stats.Online.variance acc)

let test_online_single () =
  let acc = Stats.Online.create () in
  Stats.Online.add acc 3.5;
  check_float "mean" 3.5 (Stats.Online.mean acc);
  check_float "variance of single" 0. (Stats.Online.variance acc)

let test_online_merge () =
  let xs = [ 1.; 2.; 3.; 10.; -4.; 6.5 ] and ys = [ 7.; 7.; 0.1 ] in
  let a = Stats.Online.create () and b = Stats.Online.create () in
  List.iter (Stats.Online.add a) xs;
  List.iter (Stats.Online.add b) ys;
  let merged = Stats.Online.merge a b in
  let direct = Stats.Online.create () in
  List.iter (Stats.Online.add direct) (xs @ ys);
  check_float ~eps:1e-9 "mean" (Stats.Online.mean direct)
    (Stats.Online.mean merged);
  check_float ~eps:1e-9 "variance" (Stats.Online.variance direct)
    (Stats.Online.variance merged)

let test_online_merge_with_empty () =
  let a = Stats.Online.create () in
  List.iter (Stats.Online.add a) [ 1.; 2. ];
  let empty = Stats.Online.create () in
  let m1 = Stats.Online.merge a empty and m2 = Stats.Online.merge empty a in
  check_float "left merge mean" 1.5 (Stats.Online.mean m1);
  check_float "right merge mean" 1.5 (Stats.Online.mean m2);
  check_float "variances" 0.5 (Stats.Online.variance m1)


(* --- Summary --- *)

let test_summary_known () =
  let s = Stats.Summary.of_array [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check int) "count" 5 s.Stats.Summary.count;
  check_float "mean" 3. s.Stats.Summary.mean;
  check_float "median" 3. s.Stats.Summary.median;
  check_float "min" 1. s.Stats.Summary.min;
  check_float "max" 5. s.Stats.Summary.max

let test_summary_empty () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.Summary.of_array: empty sample") (fun () ->
      ignore (Stats.Summary.of_array [||]))

let test_quantile_interpolation () =
  let sample = [| 10.; 20.; 30.; 40. |] in
  check_float "q=0" 10. (Stats.Summary.quantile sample ~q:0.);
  check_float "q=1" 40. (Stats.Summary.quantile sample ~q:1.);
  check_float "median interpolates" 25. (Stats.Summary.quantile sample ~q:0.5);
  check_float "q=1/3" 20. (Stats.Summary.quantile sample ~q:(1. /. 3.));
  (* input must not be mutated *)
  let sample2 = [| 3.; 1.; 2. |] in
  ignore (Stats.Summary.quantile sample2 ~q:0.5);
  Alcotest.(check (array (float 0.))) "input untouched" [| 3.; 1.; 2. |] sample2

let test_quantile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: empty sample")
    (fun () -> ignore (Stats.Summary.quantile [||] ~q:0.5));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Stats.quantile: q must lie in [0, 1]") (fun () ->
      ignore (Stats.Summary.quantile [| 1. |] ~q:1.5))

let test_mean_ci95 () =
  let mean, half = Stats.Summary.mean_ci95 [| 5.; 5.; 5.; 5. |] in
  check_float "constant mean" 5. mean;
  check_float "constant halfwidth" 0. half;
  let mean1, half1 = Stats.Summary.mean_ci95 [| 42. |] in
  check_float "single mean" 42. mean1;
  check_float "single halfwidth" 0. half1;
  let _, half2 = Stats.Summary.mean_ci95 [| 0.; 10. |] in
  Alcotest.(check bool) "spread gives positive halfwidth" true (half2 > 0.)

(* --- Regression --- *)

(* [log_log] is least squares on the logs: a line [v = a u + b] in log
   space is the power law [exp b * x^a]. *)
let exp_points points = Array.map (fun (u, v) -> (exp u, exp v)) points

let test_ols_exact_line () =
  let points =
    exp_points
      (Array.init 10 (fun i ->
           (float_of_int i, (3. *. float_of_int i) +. 2.)))
  in
  let fit = Stats.Regression.log_log points in
  check_float ~eps:1e-9 "slope" 3. fit.Stats.Regression.slope;
  check_float ~eps:1e-9 "intercept" 2. fit.Stats.Regression.intercept;
  check_float ~eps:1e-9 "r^2" 1. fit.Stats.Regression.r_squared;
  Alcotest.(check int) "n" 10 fit.Stats.Regression.n

let test_ols_noisy_line () =
  let rng = Prng.of_seed 1 in
  let points =
    Array.init 200 (fun i ->
        let x = float_of_int i /. 10. in
        (x, (2. *. x) -. 1. +. Prng.gaussian rng ~mean:0. ~stddev:0.1))
  in
  let fit = Stats.Regression.log_log (exp_points points) in
  Alcotest.(check bool) "slope near 2" true
    (Float.abs (fit.Stats.Regression.slope -. 2.) < 0.05);
  Alcotest.(check bool) "good r^2" true (fit.Stats.Regression.r_squared > 0.99)

let test_ols_errors () =
  Alcotest.check_raises "one point"
    (Invalid_argument
       "Stats.Regression.log_log: need 2 points with positive coords")
    (fun () -> ignore (Stats.Regression.log_log [| (1., 1.) |]));
  Alcotest.check_raises "vertical line"
    (Invalid_argument "Stats.Regression.ols: all x values identical")
    (fun () -> ignore (Stats.Regression.log_log [| (1., 1.); (1., 2.) |]))

let test_ols_constant_y () =
  let fit =
    Stats.Regression.log_log (exp_points [| (0., 5.); (1., 5.); (2., 5.) |])
  in
  check_float "flat slope" 0. fit.Stats.Regression.slope;
  check_float "r^2 of constant" 1. fit.Stats.Regression.r_squared

let test_log_log_power_law () =
  (* y = 4 x^(-1/2) exactly *)
  let points =
    Array.map (fun x -> (x, 4. *. (x ** -0.5))) [| 1.; 2.; 4.; 8.; 16.; 64. |]
  in
  let fit = Stats.Regression.log_log points in
  check_float ~eps:1e-9 "exponent" (-0.5) fit.Stats.Regression.slope;
  check_float ~eps:1e-9 "prefactor" 4. (exp fit.Stats.Regression.intercept)

let test_log_log_filters_nonpositive () =
  let points = [| (0., 1.); (-2., 5.); (1., 2.); (2., 4.); (4., 8.) |] in
  let fit = Stats.Regression.log_log points in
  Alcotest.(check int) "only positive points used" 3 fit.Stats.Regression.n;
  check_float ~eps:1e-9 "slope of y = 2x" 1. fit.Stats.Regression.slope;
  Alcotest.check_raises "not enough positive points"
    (Invalid_argument
       "Stats.Regression.log_log: need 2 points with positive coords")
    (fun () -> ignore (Stats.Regression.log_log [| (1., 1.); (-1., 3.) |]))

let exp_points3 points =
  Array.map (fun (u, v, w) -> (exp u, exp v, exp w)) points

let test_predict () =
  (* the plane z = 1 + 2x + y through three points *)
  let fit =
    Stats.Regression.log_log2
      (exp_points3 [| (0., 0., 1.); (1., 0., 3.); (0., 1., 2.) |])
  in
  check_float ~eps:1e-9 "predict2" 6. (Stats.Regression.predict2 fit 2. 1.)

let test_ols2_exact_plane () =
  (* z = 2 + 3x - 4y on a non-degenerate design *)
  let points =
    Array.of_list
      (List.concat_map
         (fun x ->
           List.map
             (fun y ->
               let xf = float_of_int x and yf = float_of_int y in
               (xf, yf, 2. +. (3. *. xf) -. (4. *. yf)))
             [ 0; 1; 2; 5 ])
         [ 0; 1; 3; 7 ])
  in
  let fit = Stats.Regression.log_log2 (exp_points3 points) in
  check_float ~eps:1e-9 "intercept" 2. fit.Stats.Regression.intercept2;
  check_float ~eps:1e-9 "slope x" 3. fit.Stats.Regression.slope_x;
  check_float ~eps:1e-9 "slope y" (-4.) fit.Stats.Regression.slope_y;
  check_float ~eps:1e-9 "r^2" 1. fit.Stats.Regression.r_squared2;
  Alcotest.(check int) "n" 16 fit.Stats.Regression.n2;
  check_float ~eps:1e-9 "predict2" (2. +. 30. -. 8.)
    (Stats.Regression.predict2 fit 10. 2.)

let test_ols2_noisy_plane () =
  let rng = Prng.of_seed 8 in
  let points =
    Array.init 300 (fun _ ->
        let x = Prng.float rng 10. and y = Prng.float rng 10. in
        (x, y, 1. +. (0.5 *. x) -. (2. *. y) +. Prng.gaussian rng ~mean:0. ~stddev:0.05))
  in
  let fit = Stats.Regression.log_log2 (exp_points3 points) in
  Alcotest.(check bool) "slope x near 0.5" true
    (Float.abs (fit.Stats.Regression.slope_x -. 0.5) < 0.02);
  Alcotest.(check bool) "slope y near -2" true
    (Float.abs (fit.Stats.Regression.slope_y +. 2.) < 0.02);
  Alcotest.(check bool) "good fit" true (fit.Stats.Regression.r_squared2 > 0.99)

let test_ols2_errors () =
  Alcotest.check_raises "too few"
    (Invalid_argument
       "Stats.Regression.log_log2: need 3 points with positive coords")
    (fun () ->
      ignore (Stats.Regression.log_log2 [| (1., 1., 1.); (2., 2., 2.) |]));
  (* collinear design: y = x everywhere *)
  Alcotest.check_raises "collinear"
    (Invalid_argument "Stats.Regression.ols2: degenerate (collinear) design")
    (fun () ->
      ignore
        (Stats.Regression.log_log2
           (exp_points3
              [| (1., 1., 1.); (2., 2., 2.); (3., 3., 3.); (4., 4., 4.) |])))

let test_log_log2_power_law () =
  (* z = 5 * x^1 * y^(-1/2) exactly — the paper's T_B shape *)
  let points =
    Array.of_list
      (List.concat_map
         (fun x ->
           List.map
             (fun y -> (x, y, 5. *. x *. (y ** -0.5)))
             [ 1.; 4.; 16.; 64. ])
         [ 2.; 8.; 32. ])
  in
  let fit = Stats.Regression.log_log2 points in
  check_float ~eps:1e-9 "exponent of x" 1. fit.Stats.Regression.slope_x;
  check_float ~eps:1e-9 "exponent of y" (-0.5) fit.Stats.Regression.slope_y;
  check_float ~eps:1e-9 "prefactor" 5. (exp fit.Stats.Regression.intercept2)

let test_log_log2_filters () =
  Alcotest.check_raises "nonpositive filtered out"
    (Invalid_argument
       "Stats.Regression.log_log2: need 3 points with positive coords")
    (fun () ->
      ignore
        (Stats.Regression.log_log2
           [| (1., 1., 1.); (2., 2., -1.); (0., 3., 3.); (4., -4., 4.) |]))

(* --- normal quantile and chi-square --- *)

(* The normal quantile z behind a Wilson–Hilferty critical value:
   [c = df (1 - h + z sqrt h)^3] with [h = 2 / (9 df)]. *)
let normal_quantile p =
  let df = 50 in
  let h = 2. /. (9. *. float_of_int df) in
  let c = Stats.Chi_square.critical_value ~df ~confidence:p in
  (Float.cbrt (c /. float_of_int df) -. 1. +. h) /. sqrt h

let test_normal_quantile () =
  check_float ~eps:1e-6 "median" 0. (normal_quantile 0.5);
  check_float ~eps:1e-5 "97.5%" 1.959964 (normal_quantile 0.975);
  check_float ~eps:1e-5 "2.5%" (-1.959964) (normal_quantile 0.025);
  check_float ~eps:1e-5 "99.9%" 3.090232 (normal_quantile 0.999);
  (* symmetry *)
  check_float ~eps:1e-9 "symmetry" (normal_quantile 0.83)
    (-.normal_quantile 0.17)

let test_chi_square_statistic () =
  (* textbook: observed [10; 20; 30], expected uniform 20 each:
     (100 + 0 + 100) / 20 = 10 *)
  check_float ~eps:1e-9 "known statistic" 10.
    (Stats.Chi_square.uniform_statistic [| 10; 20; 30 |]);
  check_float ~eps:1e-9 "perfect fit" 0.
    (Stats.Chi_square.uniform_statistic [| 7; 7; 7; 7 |]);
  Alcotest.check_raises "empty input"
    (Invalid_argument "Stats.Chi_square.uniform_statistic: empty input")
    (fun () -> ignore (Stats.Chi_square.uniform_statistic [||]));
  Alcotest.check_raises "zero total"
    (Invalid_argument "Stats.Chi_square.uniform_statistic: zero total")
    (fun () -> ignore (Stats.Chi_square.uniform_statistic [| 0; 0 |]))

let test_chi_square_critical_values () =
  (* Wilson-Hilferty is good to < 1% for df >= 3 *)
  let close ~pct expected actual =
    Float.abs (actual -. expected) /. expected < pct
  in
  Alcotest.(check bool) "df=10, 95%" true
    (close ~pct:0.01 18.307
       (Stats.Chi_square.critical_value ~df:10 ~confidence:0.95));
  Alcotest.(check bool) "df=100, 95%" true
    (close ~pct:0.01 124.342
       (Stats.Chi_square.critical_value ~df:100 ~confidence:0.95));
  Alcotest.(check bool) "df=5, 99%" true
    (close ~pct:0.02 15.086
       (Stats.Chi_square.critical_value ~df:5 ~confidence:0.99));
  Alcotest.check_raises "df = 0"
    (Invalid_argument "Stats.Chi_square.critical_value: df <= 0") (fun () ->
      ignore (Stats.Chi_square.critical_value ~df:0 ~confidence:0.95))

let uniform_at ~counts ~confidence =
  Stats.Chi_square.uniform_statistic counts
  <= Stats.Chi_square.critical_value ~df:(Array.length counts - 1) ~confidence

let test_chi_square_uniform_test () =
  let rng = Prng.of_seed 11 in
  (* genuinely uniform counts pass *)
  let uniform = Array.make 20 0 in
  for _ = 1 to 20_000 do
    let i = Prng.int rng 20 in
    uniform.(i) <- uniform.(i) + 1
  done;
  Alcotest.(check bool) "uniform accepted" true
    (uniform_at ~counts:uniform ~confidence:0.999);
  (* a heavily skewed distribution fails *)
  let skewed = Array.make 20 100 in
  skewed.(0) <- 2000;
  Alcotest.(check bool) "skew rejected" false
    (uniform_at ~counts:skewed ~confidence:0.999)

(* --- Bootstrap --- *)

let test_bootstrap_mean_ci () =
  let rng = Prng.of_seed 2 in
  let sample = Array.init 200 (fun _ -> Prng.gaussian rng ~mean:10. ~stddev:2.) in
  let mean_of arr =
    Array.fold_left ( +. ) 0. arr /. float_of_int (Array.length arr)
  in
  let lo, hi = Stats.Bootstrap.ci rng sample ~stat:mean_of () in
  Alcotest.(check bool) "interval ordered" true (lo <= hi);
  Alcotest.(check bool)
    (Printf.sprintf "CI [%.2f, %.2f] contains true mean 10" lo hi)
    true
    (lo < 10. && 10. < hi);
  Alcotest.(check bool) "interval reasonably tight" true (hi -. lo < 2.)

let test_bootstrap_errors () =
  let rng = Prng.of_seed 3 in
  Alcotest.check_raises "empty" (Invalid_argument "Stats.Bootstrap.ci: empty sample")
    (fun () -> ignore (Stats.Bootstrap.ci rng [||] ~stat:(fun _ -> 0.) ()));
  Alcotest.check_raises "bad level"
    (Invalid_argument "Stats.Bootstrap.ci: level out of (0, 1)") (fun () ->
      ignore (Stats.Bootstrap.ci rng [| 1. |] ~stat:(fun _ -> 0.) ~level:1. ()))

(* --- qcheck --- *)

let float_array_gen =
  QCheck.(array_of_size (Gen.int_range 1 50) (float_range (-1000.) 1000.))

let prop_variance_nonneg =
  QCheck.Test.make ~name:"variance is non-negative" ~count:300 float_array_gen
    (fun xs ->
      let acc = Stats.Online.create () in
      Array.iter (Stats.Online.add acc) xs;
      Stats.Online.variance acc >= 0.)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile is monotone in q" ~count:300
    float_array_gen (fun xs ->
      let q1 = Stats.Summary.quantile xs ~q:0.25 in
      let q2 = Stats.Summary.quantile xs ~q:0.5 in
      let q3 = Stats.Summary.quantile xs ~q:0.75 in
      q1 <= q2 && q2 <= q3)

let prop_summary_bounds =
  QCheck.Test.make ~name:"min <= median <= max" ~count:300 float_array_gen
    (fun xs ->
      let s = Stats.Summary.of_array xs in
      s.Stats.Summary.min <= s.Stats.Summary.median
      && s.Stats.Summary.median <= s.Stats.Summary.max
      && s.Stats.Summary.min <= s.Stats.Summary.mean
      && s.Stats.Summary.mean <= s.Stats.Summary.max)

let prop_merge_matches_sequential =
  QCheck.Test.make ~name:"merge equals sequential accumulation" ~count:300
    QCheck.(pair float_array_gen float_array_gen)
    (fun (xs, ys) ->
      let a = Stats.Online.create () and b = Stats.Online.create () in
      Array.iter (Stats.Online.add a) xs;
      Array.iter (Stats.Online.add b) ys;
      let merged = Stats.Online.merge a b in
      let direct = Stats.Online.create () in
      Array.iter (Stats.Online.add direct) xs;
      Array.iter (Stats.Online.add direct) ys;
      let close u v =
        Float.abs (u -. v) <= 1e-6 *. (1. +. Float.abs u +. Float.abs v)
      in
      close (Stats.Online.mean merged) (Stats.Online.mean direct)
      && close (Stats.Online.variance merged) (Stats.Online.variance direct))

let () =
  Alcotest.run "stats"
    [
      ( "online",
        [
          Alcotest.test_case "empty" `Quick test_online_empty;
          Alcotest.test_case "known values" `Quick test_online_known_values;
          Alcotest.test_case "single value" `Quick test_online_single;
          Alcotest.test_case "merge" `Quick test_online_merge;
          Alcotest.test_case "merge with empty" `Quick
            test_online_merge_with_empty;
        ] );
      ( "summary",
        [
          Alcotest.test_case "known" `Quick test_summary_known;
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "quantile interpolation" `Quick
            test_quantile_interpolation;
          Alcotest.test_case "quantile errors" `Quick test_quantile_errors;
          Alcotest.test_case "mean ci95" `Quick test_mean_ci95;
        ] );
      ( "regression",
        [
          Alcotest.test_case "exact line" `Quick test_ols_exact_line;
          Alcotest.test_case "noisy line" `Quick test_ols_noisy_line;
          Alcotest.test_case "errors" `Quick test_ols_errors;
          Alcotest.test_case "constant y" `Quick test_ols_constant_y;
          Alcotest.test_case "power law" `Quick test_log_log_power_law;
          Alcotest.test_case "filters nonpositive" `Quick
            test_log_log_filters_nonpositive;
          Alcotest.test_case "predict" `Quick test_predict;
          Alcotest.test_case "ols2 exact plane" `Quick test_ols2_exact_plane;
          Alcotest.test_case "ols2 noisy plane" `Quick test_ols2_noisy_plane;
          Alcotest.test_case "ols2 errors" `Quick test_ols2_errors;
          Alcotest.test_case "log_log2 power law" `Quick
            test_log_log2_power_law;
          Alcotest.test_case "log_log2 filters" `Quick test_log_log2_filters;
        ] );
      ( "chi-square",
        [
          Alcotest.test_case "normal quantile" `Quick test_normal_quantile;
          Alcotest.test_case "statistic" `Quick test_chi_square_statistic;
          Alcotest.test_case "critical values" `Quick
            test_chi_square_critical_values;
          Alcotest.test_case "uniform test" `Quick test_chi_square_uniform_test;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "mean CI" `Quick test_bootstrap_mean_ci;
          Alcotest.test_case "errors" `Quick test_bootstrap_errors;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_variance_nonneg; prop_quantile_monotone; prop_summary_bounds;
            prop_merge_matches_sequential;
          ] );
    ]
