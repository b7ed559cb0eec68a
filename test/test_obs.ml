(* Tests for the observability subsystem (Obs) and its integration
   with the engine, the domain pool and the experiment harness.

   The load-bearing properties:
   - instrument semantics (counters, gauges, histograms) are
     exact and thread-safe enough for the pool's use;
   - snapshots are stable: sorted keys, deterministic JSON that the
     in-tree parser round-trips;
   - the null sink costs nothing (test_alloc_discipline measures the
     engine's disabled path per step);
   - metrics are pure observation: experiment output is byte-identical
     at jobs = 1 and jobs = 4 with metrics enabled. *)

module Metric = Obs.Metric
module Registry = Obs.Registry
module Sink = Obs.Sink
module Json = Obs.Json
module Snapshot = Obs.Snapshot
module Pool = Runtime.Pool
module Exp = Experiments.Registry
module Exp_result = Experiments.Exp_result

(* --- counters and gauges --- *)

let test_counter () =
  let reg = Registry.create () in
  let c = Registry.counter reg "a.count" in
  Alcotest.(check int) "fresh counter is 0" 0 (Metric.Counter.value c);
  Metric.Counter.incr c;
  Metric.Counter.add c 41;
  Alcotest.(check int) "incr + add" 42 (Metric.Counter.value c);
  let c' = Registry.counter reg "a.count" in
  Metric.Counter.incr c';
  Alcotest.(check int) "same name, same instrument" 43 (Metric.Counter.value c)

let test_gauge () =
  let reg = Registry.create () in
  let g = Registry.gauge reg "a.gauge" in
  Alcotest.(check (float 0.0)) "fresh gauge is 0" 0.0 (Metric.Gauge.value g);
  Metric.Gauge.set g 2.5;
  Metric.Gauge.set g 1.25;
  Alcotest.(check (float 0.0)) "last set wins" 1.25 (Metric.Gauge.value g)

let test_kind_mismatch () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "x");
  Alcotest.check_raises "counter reused as gauge"
    (Invalid_argument "Obs.Registry: \"x\" is a counter, not the requested kind")
    (fun () -> ignore (Registry.gauge reg "x"))

(* --- histograms --- *)

let test_histogram_stats () =
  let reg = Registry.create () in
  let h = Registry.histogram reg "h" in
  Alcotest.(check int) "empty count" 0 (Metric.Histogram.count h);
  List.iter (Metric.Histogram.observe h) [ 5; 100; 1_000_000 ];
  Alcotest.(check int) "count" 3 (Metric.Histogram.count h);
  Alcotest.(check int) "sum" 1_000_105 (Metric.Histogram.sum_ns h);
  Alcotest.(check int) "min" 5 (Metric.Histogram.min_ns h);
  Alcotest.(check int) "max" 1_000_000 (Metric.Histogram.max_ns h)

let test_histogram_buckets () =
  let reg = Registry.create () in
  let h = Registry.histogram reg "h" ~bounds:[| 10; 100 |] in
  (* edges: <=10, <=100, +Inf *)
  List.iter (Metric.Histogram.observe h) [ 1; 10; 11; 100; 101; 5_000 ];
  let buckets = Metric.Histogram.buckets h in
  Alcotest.(check (list (pair int int)))
    "cumulative-free per-bucket counts"
    [ (10, 2); (100, 2); (max_int, 2) ]
    (Array.to_list buckets)

(* --- JSON and snapshots --- *)

let test_json_roundtrip () =
  let src =
    {|{"b":[1,2.5,null,true,"x\n"],"a":{"k":-3},"c":1e2}|}
  in
  match Json.parse src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v ->
      let printed = Json.to_string v in
      (match Json.parse printed with
      | Error e -> Alcotest.failf "re-parse failed: %s" e
      | Ok v' ->
          Alcotest.(check string)
            "print/parse/print is stable" printed (Json.to_string v'))

let test_json_rejects_garbage () =
  List.iter
    (fun src ->
      match Json.parse src with
      | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" src
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "{}trailing" ]

(* Errors carry line:col into a multi-line document, not a byte offset. *)
let test_json_error_position () =
  match Json.parse "{\n  \"a\": 1,\n  \"b\": tru\n}" with
  | Ok _ -> Alcotest.fail "accepted a truncated literal"
  | Error e ->
      Alcotest.(check string) "line:col of the bad literal"
        "3:8: JSON parse error: invalid literal (expected true)" e

(* Golden test: a small registry must serialise to exactly this
   document — stable sorted keys, stable number formatting. *)
let test_snapshot_golden () =
  let reg = Registry.create () in
  Metric.Counter.add (Registry.counter reg "z.count") 7;
  Metric.Counter.add (Registry.counter reg "a.count") 3;
  Metric.Gauge.set (Registry.gauge reg "m.gauge") 0.5;
  let h = Registry.histogram reg "h.lat" ~bounds:[| 10; 100 |] in
  List.iter (Metric.Histogram.observe h) [ 5; 50; 500 ];
  let expected =
    String.concat "\n"
      [
        "{";
        "  \"counters\": {";
        "    \"a.count\": 3,";
        "    \"z.count\": 7";
        "  },";
        "  \"gauges\": {";
        "    \"m.gauge\": 0.5";
        "  },";
        "  \"histograms\": {";
        "    \"h.lat\": {";
        "      \"count\": 3,";
        "      \"sum_ns\": 555,";
        "      \"min_ns\": 5,";
        "      \"max_ns\": 500,";
        "      \"mean_ns\": 185.0,";
        "      \"p50_ns\": 55.0,";
        "      \"p95_ns\": 439.99999999999989,";
        "      \"p99_ns\": 487.99999999999989,";
        "      \"buckets\": [";
        "        [10, 1],";
        "        [100, 1],";
        "        [\"+Inf\", 1]";
        "      ]";
        "    }";
        "  }";
        "}";
        "";
      ]
  in
  Alcotest.(check string) "golden snapshot" expected
    (Snapshot.to_json_string reg)

(* Percentiles are bucket interpolations clamped by the exact min/max:
   a one-sample histogram must report that sample everywhere, and a
   uniform fill must put p50 mid-bucket. *)
let test_percentiles () =
  let reg = Registry.create () in
  let one = Registry.histogram reg "one" ~bounds:[| 10; 100 |] in
  Alcotest.(check (option (float 0.0)))
    "empty histogram has no percentile" None
    (Snapshot.percentile_ns one ~q:0.5);
  Metric.Histogram.observe one 42;
  List.iter
    (fun q ->
      Alcotest.(check (option (float 0.0)))
        (Printf.sprintf "single sample at q=%.2f" q)
        (Some 42.0)
        (Snapshot.percentile_ns one ~q))
    [ 0.5; 0.95; 0.99; 1.0 ];
  let h = Registry.histogram reg "h" ~bounds:[| 10; 100 |] in
  List.iter (Metric.Histogram.observe h) [ 5; 50; 500 ];
  Alcotest.(check (option (float 1e-9)))
    "p50 interpolates inside the middle bucket" (Some 55.0)
    (Snapshot.percentile_ns h ~q:0.5);
  Alcotest.(check (option (float 1e-9)))
    "p95 clamps the overflow bucket to max_ns"
    (Some 440.0)
    (Snapshot.percentile_ns h ~q:0.95)

let test_prometheus () =
  let reg = Registry.create () in
  Metric.Counter.add (Registry.counter reg "cache.hits") 3;
  Metric.Gauge.set (Registry.gauge reg "pool.busy") 0.5;
  let h = Registry.histogram reg "sim.step_ns" ~bounds:[| 10; 100 |] in
  List.iter (Metric.Histogram.observe h) [ 5; 50; 500 ];
  let expected =
    String.concat "\n"
      [
        "# TYPE mobisim_cache_hits counter";
        "mobisim_cache_hits 3";
        "# TYPE mobisim_pool_busy gauge";
        "mobisim_pool_busy 0.5";
        "# TYPE mobisim_sim_step_ns histogram";
        "mobisim_sim_step_ns_bucket{le=\"10\"} 1";
        "mobisim_sim_step_ns_bucket{le=\"100\"} 2";
        "mobisim_sim_step_ns_bucket{le=\"+Inf\"} 3";
        "mobisim_sim_step_ns_sum 555";
        "mobisim_sim_step_ns_count 3";
        "";
      ]
  in
  Alcotest.(check string) "prometheus exposition" expected
    (Snapshot.to_prometheus reg)

let test_snapshot_parse_validate () =
  let reg = Registry.create () in
  Metric.Counter.incr (Registry.counter reg "c");
  Metric.Histogram.observe (Registry.histogram reg "h") 123;
  let doc = Snapshot.to_json_string reg in
  (match Snapshot.parse doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "snapshot rejected its own output: %s" e);
  match Snapshot.parse {|{"counters":{},"gauges":{}}|} with
  | Ok _ -> Alcotest.fail "accepted snapshot missing histograms"
  | Error _ -> ()

(* --- integration: metrics are pure observation --- *)

let with_ambient_jobs jobs fn =
  Fun.protect
    ~finally:(fun () -> Pool.set_ambient_jobs 1)
    (fun () ->
      Pool.set_ambient_jobs jobs;
      fn ())

let with_ambient_sink sink fn =
  Fun.protect
    ~finally:(fun () ->
      Sink.set_ambient Sink.null;
      Pool.set_ambient_metrics Sink.null)
    (fun () ->
      Sink.set_ambient sink;
      Pool.set_ambient_metrics sink;
      fn ())

let render_e1 () =
  let entry =
    match Exp.find "E1" with
    | Some e -> e
    | None -> Alcotest.fail "E1 missing from registry"
  in
  let buf = Buffer.create (1 lsl 12) in
  let results =
    Exp.run_entries ~quick:true ~seed:0
      ~on_result:(fun r -> Buffer.add_string buf (Exp_result.to_csv r))
      [ entry ]
  in
  (Buffer.contents buf, List.map Exp_result.to_csv results)

let test_byte_identical_with_metrics () =
  let baseline, baseline_csv = with_ambient_jobs 1 render_e1 in
  List.iter
    (fun jobs ->
      let reg = Registry.create () in
      let rendered, csv =
        with_ambient_sink (Sink.of_registry reg) (fun () ->
            with_ambient_jobs jobs render_e1)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "CSV identical, metrics on, jobs=%d" jobs)
        baseline_csv csv;
      Alcotest.(check string)
        (Printf.sprintf "rendered output identical, metrics on, jobs=%d" jobs)
        baseline rendered;
      (* and the metrics themselves were live, not dead weight *)
      match List.assoc_opt "sim.steps" (Registry.to_list reg) with
      | Some (Registry.Counter c) ->
          Alcotest.(check bool)
            (Printf.sprintf "sim.steps counted at jobs=%d" jobs)
            true
            (Metric.Counter.value c > 0)
      | _ -> Alcotest.fail "sim.steps counter missing with metrics on")
    [ 1; 4 ]

let () =
  Alcotest.run "obs"
    [
      ( "instruments",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "histogram stats" `Quick test_histogram_stats;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "json rejects garbage" `Quick
            test_json_rejects_garbage;
          Alcotest.test_case "json error position" `Quick
            test_json_error_position;
          Alcotest.test_case "golden" `Quick test_snapshot_golden;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "prometheus" `Quick test_prometheus;
          Alcotest.test_case "parse + validate" `Quick
            test_snapshot_parse_validate;
        ] );
      ( "integration",
        [
          Alcotest.test_case "byte-identical across jobs with metrics" `Quick
            test_byte_identical_with_metrics;
        ] );
    ]
