(* Tests for Obs.Series, the per-step timeseries recorder, and its
   engine integration.

   The load-bearing properties:
   - decimation keeps the row/step invariant: row i holds step
     i * stride, stride a power of two, bounded rows for any run length;
   - the export is golden-stable and self-validating (export -> parse
     round-trips through the documented schema, zero rows included);
   - storage grows on demand, so a huge capacity is an exact stride-1
     record that costs memory only for the rows committed;
   - the disabled path allocates nothing (same discipline as the null sink);
   - recording is pure observation: reports are identical with a
     recorder attached or not, and experiment output stays
     byte-identical at any jobs count with an ambient series dir set.

   The stride-1 capture ([simulate --trace-out]) and its invariant
   check are tested in test_capture.ml. *)

module Series = Obs.Series
module Json = Obs.Json
module Config = Mobile_network.Config
module Engine = Mobile_network.Engine
module Simulation = Mobile_network.Simulation
module Protocol = Mobile_network.Protocol

(* --- recorder semantics --------------------------------------------------- *)

let test_create_validation () =
  let invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "create accepted %s" msg
  in
  invalid "capacity 1" (fun () -> Series.create ~capacity:1 ~columns:[ "x" ] ());
  invalid "empty columns" (fun () -> Series.create ~columns:[] ());
  invalid "duplicate column" (fun () ->
      Series.create ~columns:[ "x"; "x" ] ());
  invalid "reserved step column" (fun () ->
      Series.create ~columns:[ "step" ] ());
  Alcotest.(check bool) "null is disabled" false (Series.enabled Series.null);
  Alcotest.(check bool) "created recorder is enabled" true
    (Series.enabled (Series.create ~columns:[ "x" ] ()))

let test_decimation () =
  let t = Series.create ~capacity:4 ~columns:[ "x" ] () in
  let cx = Series.col t "x" in
  for step = 0 to 9 do
    if Series.want t ~step then begin
      Series.stage t cx (step * 10);
      Series.commit t ~step
    end
  done;
  (* capacity 4 over steps 0..9: two decimations leave stride 4 and the
     rows for steps 0, 4, 8 — row i always holds step i * stride *)
  Alcotest.(check int) "stride doubled twice" 4 (Series.stride t);
  Alcotest.(check int) "rows retained" 3 (Series.rows t);
  Alcotest.(check (array int))
    "step column" [| 0; 4; 8 |]
    (Series.column t "step");
  Alcotest.(check (array int))
    "data column survives decimation" [| 0; 40; 80 |]
    (Series.column t "x")

let test_want_gates_stride () =
  let t = Series.create ~capacity:4 ~columns:[ "x" ] () in
  let cx = Series.col t "x" in
  for step = 0 to 3 do
    Series.stage t cx step;
    Series.commit t ~step
  done;
  Alcotest.(check int) "stride after first decimation" 2 (Series.stride t);
  Alcotest.(check bool) "off-stride step not wanted" false
    (Series.want t ~step:5);
  Alcotest.(check bool) "on-stride step wanted" true (Series.want t ~step:6);
  Alcotest.(check bool) "null never wants" false
    (Series.want Series.null ~step:0)

let test_on_demand_growth () =
  let t = Series.create ~capacity:1_000_000 ~columns:[ "x" ] () in
  let cx = Series.col t "x" in
  for step = 0 to 4999 do
    Series.stage t cx (step * 3);
    Series.commit t ~step
  done;
  Alcotest.(check int) "stride 1 below capacity" 1 (Series.stride t);
  Alcotest.(check int) "every commit kept" 5000 (Series.rows t);
  Alcotest.(check (array int))
    "step column is 0..4999"
    (Array.init 5000 Fun.id)
    (Series.column t "step");
  Alcotest.(check (array int))
    "data survives every doubling"
    (Array.init 5000 (fun i -> i * 3))
    (Series.column t "x")

(* The combined form of an export: the document [Series.parse] returns
   and accepts, the rows under ["data"]. *)
let combined ?meta t =
  match Series.parse (Series.export_string ?meta t) with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "export rejected by own parser: %s" e

(* --- export --------------------------------------------------------------- *)

let test_golden_export () =
  let t = Series.create ~capacity:4 ~columns:[ "a"; "b" ] () in
  let ca = Series.col t "a" and cb = Series.col t "b" in
  Series.stage t ca 1;
  Series.stage t cb 2;
  Series.commit t ~step:0;
  Series.stage t ca 3;
  Series.stage t cb 4;
  Series.commit t ~step:1;
  let expected =
    String.concat "\n"
      [
        "{\"schema\":\"mobisim-series/1\",\"columns\":[\"step\",\"a\",\"b\"],\
         \"stride\":1,\"rows\":2,\"meta\":{\"k\":\"v\"}}";
        "[0,1,2]";
        "[1,3,4]";
        "";
      ]
  in
  let exported = Series.export_string ~meta:[ ("k", Json.String "v") ] t in
  Alcotest.(check string) "golden NDJSON export" expected exported;
  (* self-validating: both renderings parse back through the validator *)
  (match Series.parse exported with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "export rejected by own parser: %s" e);
  (match Series.parse (Json.to_string (combined t)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "combined form rejected: %s" e);
  (* a zero-row NDJSON export is its header line alone *)
  match Series.parse (Series.export_string (Series.create ~columns:[ "x" ] ()))
  with
  | Ok j ->
      Alcotest.(check string) "zero-row export parses to no data"
        "[]"
        (match Json.member "data" j with
        | Some d -> Json.to_string d
        | None -> "missing")
  | Error e -> Alcotest.failf "zero-row export rejected: %s" e

(* NDJSON rows parse one line at a time: a corrupt row is reported at
   its line in the file (header = line 1, row 3 = line 4), not at
   line 1 of the one-line document it was parsed as. *)
let test_bad_row_names_file_line () =
  let t = Series.create ~columns:[ "x" ] () in
  let cx = Series.col t "x" in
  for step = 0 to 3 do
    Series.stage t cx (10 * step);
    Series.commit t ~step
  done;
  let corrupt =
    String.split_on_char '\n' (Series.export_string t)
    |> List.mapi (fun i line -> if i = 3 then "[2,20" else line)
    |> String.concat "\n"
  in
  match Series.parse corrupt with
  | Ok _ -> Alcotest.fail "a truncated row was accepted"
  | Error e ->
      Alcotest.(check string) "error names file line 4"
        "invalid series row: 4:6: JSON parse error: expected , or ] in array"
        e

let test_validator_rejections () =
  let t = Series.create ~capacity:4 ~columns:[ "x" ] () in
  let cx = Series.col t "x" in
  Series.stage t cx 7;
  Series.commit t ~step:0;
  let doc = combined t in
  let rejects msg tweak =
    let j =
      match doc with
      | Json.Assoc members -> Json.Assoc (List.map tweak members)
      | _ -> Alcotest.fail "combined form is not an object"
    in
    match Series.parse (Json.to_string j) with
    | Ok _ -> Alcotest.failf "validator accepted %s" msg
    | Error _ -> ()
  in
  (match Series.parse (Json.to_string doc) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "validator rejected a live recorder: %s" e);
  rejects "a wrong schema tag" (function
    | "schema", _ -> ("schema", Json.String "mobisim-series/0")
    | kv -> kv);
  rejects "a non-power-of-two stride" (function
    | "stride", _ -> ("stride", Json.Int 3)
    | kv -> kv);
  rejects "a row-count mismatch" (function
    | "rows", _ -> ("rows", Json.Int 5)
    | kv -> kv);
  rejects "an off-stride step" (function
    | "stride", _ -> ("stride", Json.Int 2)
    | "data", _ -> ("data", Json.List [ Json.List [ Json.Int 1; Json.Int 7 ] ])
    | kv -> kv);
  rejects "a short row" (function
    | "data", _ -> ("data", Json.List [ Json.List [ Json.Int 0 ] ])
    | kv -> kv)

(* Series.parse is total: a mutant of a valid NDJSON export or of a
   combined-document export is accepted or rejected with a message,
   never an exception. *)
let valid_exports =
  let t = Series.create ~capacity:4 ~columns:[ "informed"; "components" ] () in
  let ci = Series.col t "informed" and cc = Series.col t "components" in
  for step = 0 to 5 do
    Series.stage t ci (step + 1);
    Series.stage t cc (-1);
    Series.commit t ~step
  done;
  let meta = [ ("seed", Json.Int 4); ("space", Json.String "grid") ] in
  [ Series.export_string ~meta t; Json.to_string (combined ~meta t) ]

let prop_mutants_never_raise =
  QCheck.Test.make ~name:"mutated series never raise" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(oneofl valid_exports >>= Qgen.mutate))
    (fun text ->
      match Series.parse text with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "Series.parse raised %s"
            (Printexc.to_string e))

(* --- the disabled path costs nothing -------------------------------------- *)

let test_null_no_alloc () =
  let cx = Series.col Series.null "anything" in
  let once step =
    if Series.want Series.null ~step then begin
      Series.stage Series.null cx step;
      Series.commit Series.null ~step
    end
  in
  for step = 1 to 100 do
    once step
  done;
  let before = (Gc.quick_stat ()).Gc.minor_words in
  for step = 1 to 10_000 do
    once step
  done;
  let after = (Gc.quick_stat ()).Gc.minor_words in
  Alcotest.(check (float 0.0))
    "no minor allocation across 10k disabled steps" 0.0 (after -. before)

(* --- engine integration --------------------------------------------------- *)

let cfg =
  Config.make ~side:16 ~agents:8 ~radius:2 ~seed:1 ~trial:0 ()

let test_engine_purity () =
  let plain = Simulation.run_config cfg in
  let sr = Series.create ~columns:Engine.series_columns () in
  let recorded = Simulation.run_config ~series:sr cfg in
  Alcotest.(check int) "steps unchanged" plain.Simulation.steps
    recorded.Simulation.steps;
  Alcotest.(check int) "informed unchanged" plain.Simulation.informed
    recorded.Simulation.informed;
  Alcotest.(check bool) "outcome unchanged" true
    (plain.Simulation.outcome = recorded.Simulation.outcome);
  (* the curve covers the whole run: step 0 state plus every step (the
     default capacity exceeds this run, so stride stays 1) *)
  Alcotest.(check int) "stride 1 for a short run" 1 (Series.stride sr);
  Alcotest.(check int) "one row per step plus the initial state"
    (plain.Simulation.steps + 1)
    (Series.rows sr);
  let informed = Series.column sr "informed" in
  (* row 0 records the post-placement time-0 state: the source plus any
     agents its initial exchange already reached *)
  Alcotest.(check bool) "initial informed includes the source" true
    (informed.(0) >= 1);
  Alcotest.(check int) "final informed row matches the report"
    plain.Simulation.informed
    informed.(Array.length informed - 1);
  (* the phase columns measured something on a timed run *)
  let move = Series.column sr "move_ns" in
  Alcotest.(check bool) "move phase was timed" true
    (Array.exists (fun ns -> ns > 0) move)

let test_engine_export_validates () =
  let sr = Series.create ~capacity:16 ~columns:Engine.series_columns () in
  let (_ : Simulation.report) = Simulation.run_config ~series:sr cfg in
  match Series.parse (Series.export_string sr) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "engine-recorded series invalid: %s" e

(* --- experiments stay byte-identical with an ambient series dir ------------ *)

let with_temp_dir fn =
  let dir = Filename.temp_file "mobisim_series" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> fn dir)

let with_ambient_jobs jobs fn =
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.set_ambient_jobs 1)
    (fun () ->
      Runtime.Pool.set_ambient_jobs jobs;
      fn ())

let with_ambient_series_dir dir fn =
  Fun.protect
    ~finally:(fun () -> Series.set_ambient_dir None)
    (fun () ->
      Series.set_ambient_dir (Some dir);
      fn ())

let render_e1 () =
  let entry =
    match Experiments.Registry.find "E1" with
    | Some e -> e
    | None -> Alcotest.fail "E1 missing from registry"
  in
  let buf = Buffer.create (1 lsl 12) in
  let (_ : Experiments.Exp_result.t list) =
    Experiments.Registry.run_entries ~quick:true ~seed:0
      ~on_result:(fun r ->
        Buffer.add_string buf (Experiments.Exp_result.to_csv r))
      [ entry ]
  in
  Buffer.contents buf

let series_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".series.json")
  |> List.sort compare

let test_e1_byte_identical_with_series () =
  let baseline = render_e1 () in
  let outputs =
    List.map
      (fun jobs ->
        with_temp_dir (fun dir ->
            let rendered =
              with_ambient_series_dir dir (fun () ->
                  with_ambient_jobs jobs render_e1)
            in
            let files = series_files dir in
            Alcotest.(check bool)
              (Printf.sprintf "series files written at jobs=%d" jobs)
              true
              (List.length files > 0);
            List.iter
              (fun f ->
                let path = Filename.concat dir f in
                let ic = open_in_bin path in
                let text = really_input_string ic (in_channel_length ic) in
                close_in ic;
                match Series.parse text with
                | Ok _ -> ()
                | Error e -> Alcotest.failf "%s invalid: %s" f e)
              files;
            (rendered, files)))
      [ 1; 2 ]
  in
  List.iteri
    (fun i (rendered, _) ->
      Alcotest.(check string)
        (Printf.sprintf "E1 output byte-identical with series (case %d)" i)
        baseline rendered)
    outputs;
  match outputs with
  | [ (_, f1); (_, f2) ] ->
      Alcotest.(check (list string))
        "same series files at jobs=1 and jobs=2" f1 f2
  | _ -> Alcotest.fail "expected two job counts"

let () =
  Alcotest.run "series"
    [
      ( "recorder",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "decimation invariant" `Quick test_decimation;
          Alcotest.test_case "want gates the stride" `Quick
            test_want_gates_stride;
          Alcotest.test_case "null no-alloc" `Quick test_null_no_alloc;
          Alcotest.test_case "on-demand growth" `Quick test_on_demand_growth;
        ] );
      ( "export",
        [
          Alcotest.test_case "golden self-validating" `Quick test_golden_export;
          Alcotest.test_case "validator rejections" `Quick
            test_validator_rejections;
          Alcotest.test_case "bad row names its file line" `Quick
            test_bad_row_names_file_line;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 25 |])
            prop_mutants_never_raise;
        ] );
      ( "engine",
        [
          Alcotest.test_case "pure observation" `Quick test_engine_purity;
          Alcotest.test_case "recorded export validates" `Quick
            test_engine_export_validates;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "E1 byte-identical with ambient series dir"
            `Quick test_e1_byte_identical_with_series;
        ] );
    ]
