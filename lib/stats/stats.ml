module Online = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
  }

  let create () = { count = 0; mean = 0.; m2 = 0. }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let mean t = if t.count = 0 then 0. else t.mean

  let variance t =
    if t.count < 2 then 0. else t.m2 /. float_of_int (t.count - 1)

  let stddev t = sqrt (variance t)

  let merge a b =
    if a.count = 0 then { b with count = b.count }
    else if b.count = 0 then { a with count = a.count }
    else begin
      let na = float_of_int a.count and nb = float_of_int b.count in
      let n = na +. nb in
      let delta = b.mean -. a.mean in
      {
        count = a.count + b.count;
        mean = a.mean +. (delta *. nb /. n);
        m2 = a.m2 +. b.m2 +. (delta *. delta *. na *. nb /. n);
      }
    end
end

module Summary = struct
  type t = {
    count : int;
    mean : float;
    stddev : float;
    min : float;
    max : float;
    median : float;
    p10 : float;
    p90 : float;
  }

  let quantile_sorted sorted ~q =
    let n = Array.length sorted in
    if n = 1 then sorted.(0)
    else begin
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = Stdlib.min (lo + 1) (n - 1) in
      let frac = pos -. float_of_int lo in
      sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
    end

  let quantile sample ~q =
    if Array.length sample = 0 then invalid_arg "Stats.quantile: empty sample";
    if not (q >= 0. && q <= 1.) then
      invalid_arg "Stats.quantile: q must lie in [0, 1]";
    let sorted = Array.copy sample in
    Array.sort Float.compare sorted;
    quantile_sorted sorted ~q

  let of_array sample =
    let n = Array.length sample in
    if n = 0 then invalid_arg "Stats.Summary.of_array: empty sample";
    let acc = Online.create () in
    Array.iter (Online.add acc) sample;
    let sorted = Array.copy sample in
    Array.sort Float.compare sorted;
    {
      count = n;
      mean = Online.mean acc;
      stddev = Online.stddev acc;
      min = sorted.(0);
      max = sorted.(n - 1);
      median = quantile_sorted sorted ~q:0.5;
      p10 = quantile_sorted sorted ~q:0.1;
      p90 = quantile_sorted sorted ~q:0.9;
    }

  let mean_ci95 sample =
    let n = Array.length sample in
    if n = 0 then invalid_arg "Stats.mean_ci95: empty sample";
    let acc = Online.create () in
    Array.iter (Online.add acc) sample;
    let half =
      if n < 2 then 0.
      else 1.96 *. Online.stddev acc /. sqrt (float_of_int n)
    in
    (Online.mean acc, half)
end

module Regression = struct
  type fit = {
    slope : float;
    intercept : float;
    r_squared : float;
    n : int;
  }

  let ols points =
    let n = Array.length points in
    if n < 2 then invalid_arg "Stats.Regression.ols: need at least 2 points";
    let sx = ref 0. and sy = ref 0. in
    Array.iter
      (fun (x, y) ->
        sx := !sx +. x;
        sy := !sy +. y)
      points;
    let mx = !sx /. float_of_int n and my = !sy /. float_of_int n in
    let sxx = ref 0. and sxy = ref 0. and syy = ref 0. in
    Array.iter
      (fun (x, y) ->
        let dx = x -. mx and dy = y -. my in
        sxx := !sxx +. (dx *. dx);
        sxy := !sxy +. (dx *. dy);
        syy := !syy +. (dy *. dy))
      points;
    if !sxx = 0. then
      invalid_arg "Stats.Regression.ols: all x values identical";
    let slope = !sxy /. !sxx in
    let intercept = my -. (slope *. mx) in
    let r_squared =
      if !syy = 0. then 1. else !sxy *. !sxy /. (!sxx *. !syy)
    in
    { slope; intercept; r_squared; n }

  let log_log points =
    let usable =
      Array.of_list
        (List.filter_map
           (fun (x, y) -> if x > 0. && y > 0. then Some (log x, log y) else None)
           (Array.to_list points))
    in
    if Array.length usable < 2 then
      invalid_arg "Stats.Regression.log_log: need 2 points with positive coords";
    ols usable

  type fit2 = {
    intercept2 : float;
    slope_x : float;
    slope_y : float;
    r_squared2 : float;
    n2 : int;
  }

  (* Solve the 3x3 normal equations by Gaussian elimination with partial
     pivoting. [a] is modified in place; [b] holds the RHS. *)
  let solve3 a b =
    for col = 0 to 2 do
      (* pivot *)
      let pivot = ref col in
      for row = col + 1 to 2 do
        if Float.abs a.(row).(col) > Float.abs a.(!pivot).(col) then
          pivot := row
      done;
      if Float.abs a.(!pivot).(col) < 1e-12 then
        invalid_arg "Stats.Regression.ols2: degenerate (collinear) design";
      if !pivot <> col then begin
        let tmp = a.(col) in
        a.(col) <- a.(!pivot);
        a.(!pivot) <- tmp;
        let tb = b.(col) in
        b.(col) <- b.(!pivot);
        b.(!pivot) <- tb
      end;
      for row = col + 1 to 2 do
        let factor = a.(row).(col) /. a.(col).(col) in
        for j = col to 2 do
          a.(row).(j) <- a.(row).(j) -. (factor *. a.(col).(j))
        done;
        b.(row) <- b.(row) -. (factor *. b.(col))
      done
    done;
    let x = Array.make 3 0. in
    for row = 2 downto 0 do
      let s = ref b.(row) in
      for j = row + 1 to 2 do
        s := !s -. (a.(row).(j) *. x.(j))
      done;
      x.(row) <- !s /. a.(row).(row)
    done;
    x

  let ols2 points =
    let n = Array.length points in
    if n < 3 then invalid_arg "Stats.Regression.ols2: need at least 3 points";
    (* normal equations for z = b0 + b1 x + b2 y *)
    let sx = ref 0. and sy = ref 0. and sz = ref 0. in
    let sxx = ref 0. and syy = ref 0. and sxy = ref 0. in
    let sxz = ref 0. and syz = ref 0. in
    Array.iter
      (fun (x, y, z) ->
        sx := !sx +. x;
        sy := !sy +. y;
        sz := !sz +. z;
        sxx := !sxx +. (x *. x);
        syy := !syy +. (y *. y);
        sxy := !sxy +. (x *. y);
        sxz := !sxz +. (x *. z);
        syz := !syz +. (y *. z))
      points;
    let nf = float_of_int n in
    let a =
      [| [| nf; !sx; !sy |]; [| !sx; !sxx; !sxy |]; [| !sy; !sxy; !syy |] |]
    in
    let b = [| !sz; !sxz; !syz |] in
    let coef = solve3 a b in
    let intercept2 = coef.(0) and slope_x = coef.(1) and slope_y = coef.(2) in
    (* coefficient of determination *)
    let mz = !sz /. nf in
    let ss_res = ref 0. and ss_tot = ref 0. in
    Array.iter
      (fun (x, y, z) ->
        let fitted = intercept2 +. (slope_x *. x) +. (slope_y *. y) in
        ss_res := !ss_res +. ((z -. fitted) ** 2.);
        ss_tot := !ss_tot +. ((z -. mz) ** 2.))
      points;
    let r_squared2 = if !ss_tot = 0. then 1. else 1. -. (!ss_res /. !ss_tot) in
    { intercept2; slope_x; slope_y; r_squared2; n2 = n }

  let log_log2 points =
    let usable =
      Array.of_list
        (List.filter_map
           (fun (x, y, z) ->
             if x > 0. && y > 0. && z > 0. then Some (log x, log y, log z)
             else None)
           (Array.to_list points))
    in
    if Array.length usable < 3 then
      invalid_arg
        "Stats.Regression.log_log2: need 3 points with positive coords";
    ols2 usable

  let predict2 fit x y =
    fit.intercept2 +. (fit.slope_x *. x) +. (fit.slope_y *. y)
end


(* Beasley-Springer-Moro rational approximation of the inverse standard
   normal CDF. *)
let normal_quantile p =
  if not (p > 0. && p < 1.) then
    invalid_arg "Stats.normal_quantile: p outside (0, 1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  in
  let b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  in
  let c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  in
  let d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  if p < p_low then begin
    let q = sqrt (-2. *. log p) in
    ((((((c.(0) *. q) +. c.(1)) *. q) +. c.(2)) *. q +. c.(3)) *. q +. c.(4))
    *. q
    +. c.(5)
    |> fun num ->
    num
    /. ((((((d.(0) *. q) +. d.(1)) *. q) +. d.(2)) *. q +. d.(3)) *. q +. 1.)
  end
  else if p <= 1. -. p_low then begin
    let q = p -. 0.5 in
    let r = q *. q in
    q
    *. (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4))
         *. r
       +. a.(5))
    /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4))
          *. r
       +. 1.)
  end
  else begin
    let q = sqrt (-2. *. log (1. -. p)) in
    -.((((((c.(0) *. q) +. c.(1)) *. q) +. c.(2)) *. q +. c.(3)) *. q +. c.(4))
      *. q
    -. c.(5)
    |> fun num ->
    num
    /. ((((((d.(0) *. q) +. d.(1)) *. q) +. d.(2)) *. q +. d.(3)) *. q +. 1.)
  end

module Chi_square = struct
  let statistic ~observed ~expected =
    let n = Array.length observed in
    if n = 0 then invalid_arg "Stats.Chi_square.statistic: empty input";
    if Array.length expected <> n then
      invalid_arg "Stats.Chi_square.statistic: length mismatch";
    let acc = ref 0. in
    for i = 0 to n - 1 do
      if not (expected.(i) > 0.) then
        invalid_arg "Stats.Chi_square.statistic: non-positive expected count";
      let d = float_of_int observed.(i) -. expected.(i) in
      acc := !acc +. (d *. d /. expected.(i))
    done;
    !acc

  let uniform_statistic counts =
    let n = Array.length counts in
    if n = 0 then invalid_arg "Stats.Chi_square.uniform_statistic: empty input";
    let total = Array.fold_left ( + ) 0 counts in
    if total = 0 then
      invalid_arg "Stats.Chi_square.uniform_statistic: zero total";
    let expected = Array.make n (float_of_int total /. float_of_int n) in
    statistic ~observed:counts ~expected

  let critical_value ~df ~confidence =
    if df <= 0 then invalid_arg "Stats.Chi_square.critical_value: df <= 0";
    if not (confidence > 0. && confidence < 1.) then
      invalid_arg "Stats.Chi_square.critical_value: confidence outside (0, 1)";
    (* Wilson-Hilferty: X²_df(p) ~ df (1 - 2/(9 df) + z_p sqrt(2/(9 df)))³ *)
    let z = normal_quantile confidence in
    let dff = float_of_int df in
    let t = 1. -. (2. /. (9. *. dff)) +. (z *. sqrt (2. /. (9. *. dff))) in
    dff *. (t ** 3.)
end

module Bootstrap = struct
  let ci rng sample ~stat ?(replicates = 1000) ?(level = 0.95) () =
    let n = Array.length sample in
    if n = 0 then invalid_arg "Stats.Bootstrap.ci: empty sample";
    if replicates <= 0 then invalid_arg "Stats.Bootstrap.ci: replicates <= 0";
    if not (level > 0. && level < 1.) then
      invalid_arg "Stats.Bootstrap.ci: level out of (0, 1)";
    let stats =
      Array.init replicates (fun _ ->
          let resampled = Array.init n (fun _ -> Prng.choose rng sample) in
          stat resampled)
    in
    let alpha = (1. -. level) /. 2. in
    ( Summary.quantile stats ~q:alpha,
      Summary.quantile stats ~q:(1. -. alpha) )
end
