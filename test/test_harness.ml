(* Tests for the experiment harness: tables, results, sweeps and the
   registry. *)

module Table = Experiments.Table
module Exp_result = Experiments.Exp_result
module Sweep = Experiments.Sweep
module Registry = Experiments.Registry
module Config = Mobile_network.Config

(* --- Table --- *)

(* Data rows of a table: the CSV's lines after the header. *)
let row_count t =
  List.length (String.split_on_char '\n' (String.trim (Table.to_csv t))) - 1


let test_table_basics () =
  let t = Table.create ~header:[ "a"; "b" ] in
  Alcotest.(check int) "no rows" 0 (row_count t);
  Table.add_row t [ "1"; "x" ];
  Table.add_row t [ "2"; "y" ];
  Alcotest.(check int) "two rows" 2 (row_count t)

let test_table_arity_errors () =
  Alcotest.check_raises "empty header"
    (Invalid_argument "Table.create: empty header") (fun () ->
      ignore (Table.create ~header:[]));
  let t = Table.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "short row"
    (Invalid_argument "Table.add_row: arity mismatch with header") (fun () ->
      Table.add_row t [ "1" ])

let test_table_render () =
  let t = Table.create ~header:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1.25" ];
  Table.add_row t [ "b"; "300" ];
  let buf = Buffer.create 128 in
  let fmt = Format.formatter_of_buffer buf in
  Table.render fmt t;
  Format.pp_print_flush fmt ();
  let s = Buffer.contents buf in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has header" true (contains "name");
  Alcotest.(check bool) "has data" true (contains "alpha");
  Alcotest.(check bool) "has separators" true (contains "+--");
  (* numeric cells are right-aligned: "  300" appears with leading pad *)
  Alcotest.(check bool) "right-aligns numbers" true (contains " 300 ")

let test_table_rows_render_in_insertion_order () =
  let t = Table.create ~header:[ "v" ] in
  Table.add_row t [ "first" ];
  Table.add_row t [ "second" ];
  let buf = Buffer.create 64 in
  let fmt = Format.formatter_of_buffer buf in
  Table.render fmt t;
  Format.pp_print_flush fmt ();
  let s = Buffer.contents buf in
  let idx sub =
    let n = String.length s and m = String.length sub in
    let rec go i = if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1) in
    go 0
  in
  Alcotest.(check bool) "order preserved" true (idx "first" < idx "second")

let test_table_csv () =
  let t = Table.create ~header:[ "k"; "note" ] in
  Table.add_row t [ "1"; "plain" ];
  Table.add_row t [ "2"; "has,comma" ];
  Table.add_row t [ "3"; "has\"quote" ];
  let csv = Table.to_csv t in
  Alcotest.(check string) "csv escaping"
    "k,note\n1,plain\n2,\"has,comma\"\n3,\"has\"\"quote\"\n" csv

let test_cells () =
  Alcotest.(check string) "int" "42" (Table.cell_int 42);
  Alcotest.(check string) "float" "3.14" (Table.cell_float 3.14159);
  Alcotest.(check string) "float decimals" "3.1416"
    (Table.cell_float ~decimals:4 3.14159);
  Alcotest.(check string) "huge float uses %g" "1.23e+08"
    (Table.cell_float 1.23e8);
  Alcotest.(check string) "nan" "nan" (Table.cell_float Float.nan);
  Alcotest.(check string) "bool" "yes" (Table.cell_bool true);
  Alcotest.(check string) "bool no" "no" (Table.cell_bool false)

(* --- Exp_result --- *)

let dummy_result checks =
  {
    Exp_result.id = "T0";
    title = "test";
    claim = "claim";
    table = Table.create ~header:[ "x" ];
    findings = [ "finding" ];
    figures = [];
    checks;
  }

let test_check_in_range () =
  let c = Exp_result.check_in_range ~label:"v" ~value:0.5 ~lo:0. ~hi:1. in
  Alcotest.(check bool) "inside passes" true c.Exp_result.passed;
  let c2 = Exp_result.check_in_range ~label:"v" ~value:1.5 ~lo:0. ~hi:1. in
  Alcotest.(check bool) "outside fails" false c2.Exp_result.passed;
  let c3 = Exp_result.check_in_range ~label:"v" ~value:1.0 ~lo:0. ~hi:1. in
  Alcotest.(check bool) "boundary passes" true c3.Exp_result.passed

let test_all_passed () =
  let pass = Exp_result.check ~label:"a" ~passed:true ~detail:"" in
  let fail = Exp_result.check ~label:"b" ~passed:false ~detail:"" in
  Alcotest.(check bool) "all pass" true
    (Exp_result.all_passed (dummy_result [ pass; pass ]));
  Alcotest.(check bool) "one fail" false
    (Exp_result.all_passed (dummy_result [ pass; fail ]));
  Alcotest.(check bool) "vacuous" true (Exp_result.all_passed (dummy_result []))

let test_render_shows_status () =
  let r =
    dummy_result
      [
        Exp_result.check ~label:"good" ~passed:true ~detail:"d1";
        Exp_result.check ~label:"bad" ~passed:false ~detail:"d2";
      ]
  in
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Exp_result.render fmt r;
  Format.pp_print_flush fmt ();
  let s = Buffer.contents buf in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "PASS shown" true (contains "[PASS] good");
  Alcotest.(check bool) "FAIL shown" true (contains "[FAIL] bad");
  Alcotest.(check bool) "claim shown" true (contains "Paper claim: claim")

(* --- Sweep --- *)

let test_doublings () =
  Alcotest.(check (list int)) "doublings" [ 3; 6; 12; 24 ]
    (Sweep.doublings ~from:3 ~count:4);
  Alcotest.(check (list int)) "empty" [] (Sweep.doublings ~from:1 ~count:0);
  Alcotest.check_raises "bad from" (Invalid_argument "Sweep.doublings: from <= 0")
    (fun () -> ignore (Sweep.doublings ~from:0 ~count:2))

let test_geometric () =
  let g = Sweep.geometric ~from:1. ~factor:2. ~count:4 in
  Alcotest.(check int) "length" 4 (List.length g);
  List.iteri
    (fun i v ->
      Alcotest.(check bool) "value" true
        (Float.abs (v -. (2. ** float_of_int i)) < 1e-9))
    g;
  Alcotest.check_raises "factor <= 1"
    (Invalid_argument "Sweep.geometric: factor <= 1") (fun () ->
      ignore (Sweep.geometric ~from:1. ~factor:1. ~count:2))

let test_median () =
  Alcotest.(check bool) "odd" true (Sweep.median [| 3.; 1.; 2. |] = 2.);
  Alcotest.(check bool) "even interpolates" true
    (Sweep.median [| 1.; 2.; 3.; 4. |] = 2.5)

let test_completion_times () =
  let measured =
    Sweep.completion_times ~trials:4 ~cfg:(fun ~trial ->
        Config.make ~side:10 ~agents:4 ~seed:1 ~trial ())
  in
  Alcotest.(check int) "four samples" 4 (Array.length measured.Sweep.times);
  Alcotest.(check int) "no timeouts" 0 measured.Sweep.timeouts;
  Array.iter
    (fun t -> Alcotest.(check bool) "positive time" true (t >= 0.))
    measured.Sweep.times;
  (* timeouts counted *)
  let capped =
    Sweep.completion_times ~trials:3 ~cfg:(fun ~trial ->
        Config.make ~side:30 ~agents:2 ~seed:1 ~trial ~max_steps:2 ())
  in
  Alcotest.(check int) "all timed out" 3 capped.Sweep.timeouts;
  Alcotest.check_raises "trials <= 0"
    (Invalid_argument "Sweep.completion_times: trials <= 0") (fun () ->
      ignore
        (Sweep.completion_times ~trials:0 ~cfg:(fun ~trial:_ ->
             Config.make ~side:4 ~agents:1 ())))

let test_completion_times_deterministic () =
  let go () =
    (Sweep.completion_times ~trials:3 ~cfg:(fun ~trial ->
         Config.make ~side:12 ~agents:5 ~seed:7 ~trial ()))
      .Sweep.times
  in
  Alcotest.(check (array (float 0.))) "reproducible" (go ()) (go ())

let test_probability () =
  let p = Sweep.probability ~trials:10 ~f:(fun ~trial -> trial mod 2 = 0) in
  Alcotest.(check bool) "half" true (Float.abs (p -. 0.5) < 1e-9);
  Alcotest.(check bool) "all" true
    (Sweep.probability ~trials:5 ~f:(fun ~trial:_ -> true) = 1.)

(* --- Ascii_plot --- *)

module Plot = Experiments.Ascii_plot

let plot_lines s = String.split_on_char '\n' (String.trim s)

let test_plot_layout () =
  let s =
    Plot.render ~width:20 ~height:5 ~title:"T" ~x_label:"x" ~y_label:"y"
      [ { Plot.label = "s"; marker = '*'; points = [ (1., 1.); (10., 100.) ] } ]
  in
  match plot_lines s with
  | title :: rest ->
      Alcotest.(check string) "title" "T" title;
      (* 5 canvas rows + 1 axis note + 1 legend line *)
      Alcotest.(check int) "rows" 7 (List.length rest);
      List.iteri
        (fun i row ->
          if i < 5 then Alcotest.(check int) "canvas width" 20 (String.length row))
        rest
  | [] -> Alcotest.fail "empty plot"

let test_plot_extremes_placed () =
  let s =
    Plot.render ~width:21 ~height:5 ~log_x:false ~log_y:false ~title:"T"
      ~x_label:"x" ~y_label:"y"
      [ { Plot.label = "s"; marker = '*'; points = [ (0., 0.); (1., 1.) ] } ]
  in
  (match plot_lines s with
  | _ :: first_canvas :: _ ->
      (* largest y renders on the top row, at the right edge *)
      Alcotest.(check char) "top-right marker" '*'
        first_canvas.[String.length first_canvas - 1]
  | _ -> Alcotest.fail "missing canvas");
  match List.rev (plot_lines s) with
  | _legend :: _axis :: last_canvas :: _ ->
      Alcotest.(check char) "bottom-left marker" '*' last_canvas.[0]
  | _ -> Alcotest.fail "missing rows"

let test_plot_log_filters_nonpositive () =
  let s =
    Plot.render ~title:"T" ~x_label:"x" ~y_label:"y"
      [
        { Plot.label = "s"; marker = '*';
          points = [ (0., 5.); (-1., 5.); (10., 0.); (10., 100.) ] };
      ]
  in
  (* only (10, 100) survives; single point renders without crashing *)
  Alcotest.(check bool) "marker present" true (String.contains s '*');
  Alcotest.check_raises "all filtered"
    (Invalid_argument "Ascii_plot.render: no plottable points") (fun () ->
      ignore
        (Plot.render ~title:"T" ~x_label:"x" ~y_label:"y"
           [ { Plot.label = "s"; marker = '*'; points = [ (0., 1.) ] } ]))

let test_plot_legend_and_series () =
  let s =
    Plot.render ~log_x:false ~log_y:false ~title:"T" ~x_label:"xx" ~y_label:"yy"
      [
        { Plot.label = "alpha"; marker = 'a'; points = [ (0., 0.) ] };
        { Plot.label = "beta"; marker = 'b'; points = [ (1., 1.) ] };
      ]
  in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "legend alpha" true (contains "a = alpha");
  Alcotest.(check bool) "legend beta" true (contains "b = beta");
  Alcotest.(check bool) "axis labels" true (contains "xx" && contains "yy")

let test_plot_invalid_canvas () =
  Alcotest.check_raises "tiny canvas"
    (Invalid_argument "Ascii_plot.render: canvas too small") (fun () ->
      ignore
        (Plot.render ~width:1 ~title:"T" ~x_label:"x" ~y_label:"y"
           [ { Plot.label = "s"; marker = '*'; points = [ (1., 1.) ] } ]))

(* --- Registry --- *)

let test_registry_complete () =
  Alcotest.(check int) "32 experiments" 32 (List.length Registry.all);
  let ids = Registry.ids () in
  let unique = List.sort_uniq compare ids in
  Alcotest.(check int) "ids unique" (List.length ids) (List.length unique);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "%s registered" id)
        true
        (Option.is_some (Registry.find id)))
    [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11";
      "E12"; "E13"; "E14"; "E15"; "E16"; "A1"; "A2"; "A3"; "F1"; "F2"; "F3";
      "X1"; "X2"; "X3"; "X4"; "X5"; "L1"; "L2"; "L3"; "L4"; "L5" ]

let test_registry_case_insensitive () =
  Alcotest.(check bool) "lowercase works" true
    (Option.is_some (Registry.find "e1"));
  Alcotest.(check bool) "unknown absent" true
    (Option.is_none (Registry.find "E99"))

let () =
  Alcotest.run "harness"
    [
      ( "table",
        [
          Alcotest.test_case "basics" `Quick test_table_basics;
          Alcotest.test_case "arity errors" `Quick test_table_arity_errors;
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "row order" `Quick
            test_table_rows_render_in_insertion_order;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "cell formatting" `Quick test_cells;
        ] );
      ( "exp_result",
        [
          Alcotest.test_case "check_in_range" `Quick test_check_in_range;
          Alcotest.test_case "all_passed" `Quick test_all_passed;
          Alcotest.test_case "render status" `Quick test_render_shows_status;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "doublings" `Quick test_doublings;
          Alcotest.test_case "geometric" `Quick test_geometric;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "completion times" `Quick test_completion_times;
          Alcotest.test_case "deterministic" `Quick
            test_completion_times_deterministic;
          Alcotest.test_case "probability" `Quick test_probability;
        ] );
      ( "ascii_plot",
        [
          Alcotest.test_case "layout" `Quick test_plot_layout;
          Alcotest.test_case "extremes placed" `Quick
            test_plot_extremes_placed;
          Alcotest.test_case "log filtering" `Quick
            test_plot_log_filters_nonpositive;
          Alcotest.test_case "legend" `Quick test_plot_legend_and_series;
          Alcotest.test_case "invalid canvas" `Quick test_plot_invalid_canvas;
        ] );
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "case insensitive" `Quick
            test_registry_case_insensitive;
        ] );
    ]
