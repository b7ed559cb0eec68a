(* Tests for Obs.Tracer and its integration with the engine, the domain
   pool and the experiment harness.

   The load-bearing properties:
   - the export is deterministic: fixed timestamps in, byte-identical
     Chrome trace-event JSON out (golden);
   - rings are bounded: overflow counts into [dropped], never grows
     memory, and surfaces as a [tracer.dropped] instant in the export;
   - tracing costs nothing when off: the null tracer allocates zero
     minor words on the emit path (and a recording ring allocates zero
     per emit too — four int stores);
   - tracing is pure observation: experiment output is byte-identical
     with tracing on or off, at jobs = 1 and jobs = 2;
   - a real traced run exports a file the validator accepts, carrying
     all three instrumented layers (engine phases, pool lifecycle, GC
     instants);
   - the validator rejects structurally broken documents. *)

module Tracer = Obs.Tracer
module Json = Obs.Json
module Pool = Runtime.Pool
module Exp = Experiments.Registry
module Exp_result = Experiments.Exp_result

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* --- golden export --- *)

(* Emit one event of each kind at fixed timestamps (ns multiples of 500,
   so the rebased microsecond floats print exactly) and compare the
   whole export byte-for-byte. Pins the merge order, the ts rebase, the
   thread_name metadata and every field's spelling. *)
let test_golden_export () =
  let tr = Tracer.create ~capacity:8 () in
  let phase = Tracer.name tr "sim.phase.move" in
  let mark = Tracer.name tr "mark" in
  let informed = Tracer.name tr "sim.informed" in
  Tracer.duration tr phase ~ts:1_000 ~dur:500;
  Tracer.instant_v tr mark ~ts:1_500 ~v:3;
  Tracer.counter tr informed ~ts:2_000 ~v:42;
  Tracer.duration_v tr phase ~ts:2_500 ~dur:1_000 ~v:7;
  let tid = (Domain.self () :> int) in
  let expected =
    Printf.sprintf
      {|[
{"name":"thread_name","ph":"M","ts":0.0,"pid":1,"tid":%d,"args":{"name":"domain%d"}},
{"name":"sim.phase.move","ph":"X","ts":0.0,"pid":1,"tid":%d,"dur":0.5},
{"name":"mark","ph":"i","ts":0.5,"pid":1,"tid":%d,"s":"t","args":{"v":3}},
{"name":"sim.informed","ph":"C","ts":1.0,"pid":1,"tid":%d,"args":{"value":42}},
{"name":"sim.phase.move","ph":"X","ts":1.5,"pid":1,"tid":%d,"dur":1.0,"args":{"v":7}}
]
|}
      tid tid tid tid tid tid
  in
  Alcotest.(check string) "golden export" expected (Tracer.export_string tr);
  (match Tracer.parse (Tracer.export_string tr) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "golden export fails own validator: %s" e);
  Alcotest.(check int) "event count" 4 (Tracer.events tr);
  Alcotest.(check int) "nothing dropped" 0 (Tracer.dropped tr)

let test_empty_export () =
  let tr = Tracer.create () in
  Alcotest.(check string) "empty export" "[]\n" (Tracer.export_string tr);
  Alcotest.(check string) "null export" "[]\n" (Tracer.export_string Tracer.null)

(* --- bounded rings --- *)

let test_ring_overflow () =
  let tr = Tracer.create ~capacity:4 () in
  let mark = Tracer.name tr "mark" in
  for i = 1 to 10 do
    Tracer.instant_v tr mark ~ts:(i * 1_000) ~v:i
  done;
  Alcotest.(check int) "ring holds capacity" 4 (Tracer.events tr);
  Alcotest.(check int) "overflow counted" 6 (Tracer.dropped tr);
  (* keep-first: the surviving events are the earliest four *)
  let s = Tracer.export_string tr in
  let has sub = contains s sub in
  Alcotest.(check bool) "first event kept" true (has {|{"v":1}|});
  Alcotest.(check bool) "fifth event dropped" false (has {|{"v":5}|});
  Alcotest.(check bool) "dropped instant exported" true
    (has {|"name":"tracer.dropped"|} && has {|{"v":6}|})

(* --- the emit path allocates nothing --- *)

let measure_minor f =
  (* warm up: DLS ring registration and any lazy setup happen outside
     the measurement *)
  for _ = 1 to 100 do
    f 0
  done;
  let before = (Gc.quick_stat ()).Gc.minor_words in
  for i = 1 to 10_000 do
    f i
  done;
  let after = (Gc.quick_stat ()).Gc.minor_words in
  after -. before

let test_null_tracer_no_alloc () =
  let n = Tracer.name Tracer.null "x" in
  let g = Tracer.gc_track Tracer.null in
  let emitted =
    measure_minor (fun i ->
        Tracer.duration Tracer.null n ~ts:i ~dur:1;
        Tracer.instant_v Tracer.null n ~ts:i ~v:i;
        Tracer.counter Tracer.null n ~ts:i ~v:i;
        Tracer.gc_sample Tracer.null g)
  in
  Alcotest.(check (float 0.0))
    "no minor allocation across 10k null emits" 0.0 emitted

let test_recording_emit_no_alloc () =
  (* the recording path is four int stores into a pre-sized ring; once
     the ring is registered (warm-up) emitting allocates nothing, full
     or not *)
  let tr = Tracer.create ~capacity:64 () in
  let n = Tracer.name tr "x" in
  let emitted = measure_minor (fun i -> Tracer.duration tr n ~ts:i ~dur:1) in
  Alcotest.(check (float 0.0))
    "no minor allocation across 10k recording emits" 0.0 emitted

(* --- integration: tracing is pure observation --- *)

let with_ambient_jobs jobs fn =
  Fun.protect
    ~finally:(fun () -> Pool.set_ambient_jobs 1)
    (fun () ->
      Pool.set_ambient_jobs jobs;
      fn ())

let with_ambient_tracer tr fn =
  Fun.protect
    ~finally:(fun () ->
      Tracer.set_ambient Tracer.null;
      Pool.set_ambient_tracer Tracer.null)
    (fun () ->
      Tracer.set_ambient tr;
      Pool.set_ambient_tracer tr;
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

let test_byte_identical_with_tracing () =
  let baseline, baseline_csv = with_ambient_jobs 1 render_e1 in
  List.iter
    (fun jobs ->
      let tr = Tracer.create () in
      let rendered, csv =
        with_ambient_tracer tr (fun () -> with_ambient_jobs jobs render_e1)
      in
      Alcotest.(check (list string))
        (Printf.sprintf "CSV identical, tracing on, jobs=%d" jobs)
        baseline_csv csv;
      Alcotest.(check string)
        (Printf.sprintf "rendered output identical, tracing on, jobs=%d" jobs)
        baseline rendered;
      (* and the timeline was live, not dead weight *)
      Alcotest.(check bool)
        (Printf.sprintf "events recorded, jobs=%d" jobs)
        true
        (Tracer.events tr > 0))
    [ 1; 2 ]

let test_real_run_exports_all_layers () =
  let tr = Tracer.create () in
  ignore (with_ambient_tracer tr (fun () -> with_ambient_jobs 2 render_e1));
  let s = Tracer.export_string tr in
  (match Tracer.parse s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "real export fails validator: %s" e);
  let has sub = contains s sub in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "export contains %s" name)
        true
        (has (Printf.sprintf {|"name":"%s"|} name)))
    [
      "sim.phase.move"; "sim.phase.exchange"; "sim.run"; "pool.submit";
      "pool.dequeue"; "pool.task"; "thread_name";
    ]

(* --- validator rejections --- *)

let check_invalid label text =
  match Tracer.parse text with
  | Ok _ -> Alcotest.failf "%s: validator accepted invalid input" label
  | Error _ -> ()

let test_validator_rejects () =
  check_invalid "not an array" {|{"name":"x"}|};
  check_invalid "not json" "nonsense";
  check_invalid "element not an object" {|[1]|};
  check_invalid "missing name" {|[{"ph":"i","ts":0.0,"pid":1,"tid":0}]|};
  check_invalid "missing ph" {|[{"name":"x","ts":0.0,"pid":1,"tid":0}]|};
  check_invalid "non-numeric ts"
    {|[{"name":"x","ph":"i","ts":"0","pid":1,"tid":0}]|};
  check_invalid "non-integer tid"
    {|[{"name":"x","ph":"i","ts":0.0,"pid":1,"tid":0.5}]|};
  check_invalid "negative dur"
    {|[{"name":"x","ph":"X","ts":0.0,"pid":1,"tid":0,"dur":-1.0}]|};
  check_invalid "X without dur" {|[{"name":"x","ph":"X","ts":0.0,"pid":1,"tid":0}]|};
  check_invalid "ts not monotone per tid"
    {|[{"name":"x","ph":"i","ts":5.0,"pid":1,"tid":0},
       {"name":"x","ph":"i","ts":1.0,"pid":1,"tid":0}]|};
  (* interleaved tids are fine as long as each tid is monotone *)
  match
    Tracer.parse
      {|[{"name":"x","ph":"i","ts":5.0,"pid":1,"tid":0},
         {"name":"x","ph":"i","ts":1.0,"pid":1,"tid":1},
         {"name":"x","ph":"i","ts":6.0,"pid":1,"tid":0}]|}
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "per-tid monotone input rejected: %s" e

let () =
  Alcotest.run "tracer"
    [
      ( "export",
        [
          Alcotest.test_case "golden" `Quick test_golden_export;
          Alcotest.test_case "empty" `Quick test_empty_export;
          Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
        ] );
      ( "cost",
        [
          Alcotest.test_case "null tracer no-alloc" `Quick
            test_null_tracer_no_alloc;
          Alcotest.test_case "recording emit no-alloc" `Quick
            test_recording_emit_no_alloc;
        ] );
      ( "integration",
        [
          Alcotest.test_case "byte-identical with tracing" `Quick
            test_byte_identical_with_tracing;
          Alcotest.test_case "real run exports all layers" `Quick
            test_real_run_exports_all_layers;
        ] );
      ( "validation",
        [ Alcotest.test_case "rejects broken documents" `Quick
            test_validator_rejects ] );
    ]
