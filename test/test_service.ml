(* Service-layer suite: store round-trip and counters, runner
   cache-correctness (cold = warm = any --jobs, bytes included),
   partial-cache resume, checkpoint bookkeeping, and the daemon's
   request decoder. Everything runs
   in-process against temp directories — the socket daemon itself is
   exercised end-to-end by test/service_smoke.sh. *)

module Compile = Scenario.Compile
module Store = Service.Store
module Checkpoint = Service.Checkpoint
module Runner = Service.Runner
module Daemon = Service.Daemon

let with_temp_dir fn =
  let root = Filename.temp_file "mobisim_service" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote root)))
    (fun () -> fn root)

let compile_exn text =
  match Compile.compile text with
  | Ok c -> c
  | Error errs -> Alcotest.failf "compile failed: %s" (String.concat "; " errs)

let sweep_text =
  {|{"side": 12, "agents": 6, "protocol": ["broadcast", "gossip"],
     "trials": 2, "seed": 3}|}

let run_fresh ~jobs ?metrics text =
  with_temp_dir (fun root ->
      let store = Store.create ?metrics ~root () in
      Runtime.Pool.with_pool ~jobs (fun pool ->
          Runner.run ?metrics ~pool ~store (compile_exn text)))

(* ---- store -------------------------------------------------------------- *)

let test_store_roundtrip () =
  with_temp_dir (fun root ->
      let store = Store.create ~root () in
      Alcotest.(check (option string))
        "miss before put" None
        (Store.get store ~hash:"aaaa" ~seed:1 ~trial:0);
      Store.put store ~hash:"aaaa" ~seed:1 ~trial:0 "{\"x\":1}";
      Alcotest.(check (option string))
        "hit after put" (Some "{\"x\":1}")
        (Store.get store ~hash:"aaaa" ~seed:1 ~trial:0);
      Alcotest.(check (option string))
        "distinct trial is a distinct key" None
        (Store.get store ~hash:"aaaa" ~seed:1 ~trial:1);
      Alcotest.(check int) "2 misses" 2 (Store.misses store);
      Alcotest.(check int) "1 hit" 1 (Store.hits store))

let test_store_counters_in_registry () =
  with_temp_dir (fun root ->
      let reg = Obs.Registry.create () in
      let store = Store.create ~metrics:(Obs.Sink.of_registry reg) ~root () in
      ignore (Store.get store ~hash:"h" ~seed:0 ~trial:0);
      Store.put store ~hash:"h" ~seed:0 ~trial:0 "p";
      ignore (Store.get store ~hash:"h" ~seed:0 ~trial:0);
      let counter name =
        Obs.Metric.Counter.value (Obs.Registry.counter reg name)
      in
      Alcotest.(check int) "hits counter" 1 (counter "service.cache.hits");
      Alcotest.(check int) "misses counter" 1 (counter "service.cache.misses"))

(* ---- runner ------------------------------------------------------------- *)

let test_runner_jobs_independent () =
  let b1 = run_fresh ~jobs:1 sweep_text in
  let b2 = run_fresh ~jobs:2 sweep_text in
  Alcotest.(check string) "jobs=1 and jobs=2 bodies byte-identical" b1 b2

let test_runner_warm_cache () =
  with_temp_dir (fun root ->
      let reg = Obs.Registry.create () in
      let metrics = Obs.Sink.of_registry reg in
      let store = Store.create ~metrics ~root () in
      let compiled = compile_exn sweep_text in
      let computed () =
        Obs.Metric.Counter.value
          (Obs.Registry.counter reg "service.cells.computed")
      in
      Runtime.Pool.with_pool ~jobs:2 (fun pool ->
          let cold = Runner.run ~metrics ~pool ~store compiled in
          let after_cold = computed () in
          Alcotest.(check int) "cold run computed every run"
            (Compile.total_runs compiled) after_cold;
          let warm = Runner.run ~metrics ~pool ~store compiled in
          Alcotest.(check string) "warm body byte-identical to cold" cold warm;
          Alcotest.(check int) "warm run computed nothing" after_cold
            (computed ())))

let test_runner_partial_cache_resume () =
  (* a trials=1 run pre-populates every cell's trial-0 entry; the full
     trials=2 run over the same store must still produce exactly the
     bytes of an uninterrupted run — the checkpoint-replay property *)
  let full_fresh = run_fresh ~jobs:2 sweep_text in
  with_temp_dir (fun root ->
      let store = Store.create ~root () in
      let half =
        compile_exn
          {|{"side": 12, "agents": 6, "protocol": ["broadcast", "gossip"],
             "trials": 1, "seed": 3}|}
      in
      Runtime.Pool.with_pool ~jobs:2 (fun pool ->
          let (_ : string) = Runner.run ~pool ~store half in
          let resumed = Runner.run ~pool ~store (compile_exn sweep_text) in
          Alcotest.(check string)
            "resume over a partial cache = uninterrupted run" full_fresh
            resumed;
          Alcotest.(check int)
            "the pre-populated trial-0 entries were reused" 2
            (Store.hits store)))

let test_runner_progress_order () =
  with_temp_dir (fun root ->
      let store = Store.create ~root () in
      let compiled = compile_exn sweep_text in
      let seen = ref [] in
      Runtime.Pool.with_pool ~jobs:2 (fun pool ->
          let (_ : string) =
            Runner.run
              ~on_progress:(fun ~done_ ~total -> seen := (done_, total) :: !seen)
              ~pool ~store compiled
          in
          ());
      let total = Compile.total_runs compiled in
      Alcotest.(check (list (pair int int)))
        "progress counts every run once, in order"
        (List.init total (fun i -> (i + 1, total)))
        (List.rev !seen))

let test_runner_streaming () =
  (* the streamed lines, concatenated, must equal the returned body —
     at any jobs count, cold or warm *)
  List.iter
    (fun jobs ->
      with_temp_dir (fun root ->
          let store = Store.create ~root () in
          let compiled = compile_exn sweep_text in
          Runtime.Pool.with_pool ~jobs (fun pool ->
              let streamed = Buffer.create 256 in
              let cold =
                Runner.run
                  ~on_line:(Buffer.add_string streamed)
                  ~pool ~store compiled
              in
              Alcotest.(check string)
                (Printf.sprintf "cold streamed lines = body at jobs=%d" jobs)
                cold (Buffer.contents streamed);
              Buffer.clear streamed;
              let warm =
                Runner.run
                  ~on_line:(Buffer.add_string streamed)
                  ~pool ~store compiled
              in
              Alcotest.(check string)
                (Printf.sprintf "warm streamed lines = body at jobs=%d" jobs)
                warm (Buffer.contents streamed);
              Alcotest.(check string) "warm body = cold body" cold warm)))
    [ 1; 2 ]

let test_runner_series_dir () =
  with_temp_dir (fun root ->
      let store = Store.create ~root () in
      let compiled = compile_exn sweep_text in
      let dir = Filename.concat root "series" in
      Runtime.Pool.with_pool ~jobs:2 (fun pool ->
          let plain = Runner.run ~pool ~store compiled in
          let with_series = Runner.run ~series_dir:dir ~pool ~store compiled in
          Alcotest.(check string)
            "series recording leaves the body untouched" plain with_series);
      List.iter
        (fun cell ->
          let path =
            Filename.concat dir (Scenario.Ast.cell_hash cell ^ ".series.json")
          in
          Alcotest.(check bool)
            (Printf.sprintf "series artifact exists for %s"
               (Scenario.Ast.cell_hash cell))
            true (Sys.file_exists path);
          let ic = open_in_bin path in
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          match Obs.Series.parse text with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "series artifact invalid: %s" e)
        compiled.Compile.cells)

let test_run_payload_deterministic () =
  let compiled = compile_exn sweep_text in
  let cell = List.hd compiled.Compile.cells in
  Alcotest.(check string)
    "same (cell, seed, trial) twice gives identical payloads"
    (Runner.run_payload cell ~seed:3 ~trial:1)
    (Runner.run_payload cell ~seed:3 ~trial:1)

(* A floor-plan cell and a density/rc_mult cell run exactly the engines
   their fields describe: the same reports as running the engine by
   hand over the domain and the continuum box (box side
   sqrt (k / density), radius rc_mult * r_c, sigma = sigma_frac *
   radius), each with its space's default step cap. *)
module Domain_engine = Mobile_network.Engine.Make (Barriers.Domain_space)
module Continuum_engine = Mobile_network.Engine.Make (Continuum.Space)

let test_run_cell_space_fields () =
  let cell text = List.hd (compile_exn text).Compile.cells in
  let same label (a : Mobile_network.Engine.report)
      (b : Mobile_network.Engine.report) =
    Alcotest.(check (list int))
      label
      [ a.Mobile_network.Engine.steps; a.Mobile_network.Engine.informed ]
      [ b.Mobile_network.Engine.steps; b.Mobile_network.Engine.informed ]
  in
  let spec ~agents ~max_steps =
    Mobile_network.Engine.default_spec ~agents ~seed:4 ~trial:1 ~max_steps
  in
  same "wall:2 with line-of-sight blocking"
    (Runner.run_cell
       (cell
          {|{"space": "domain", "side": 16, "agents": 8, "radius": 4,
             "plan": "wall:2", "los_blocking": true}|})
       ~seed:4 ~trial:1)
    (Domain_engine.run
       (Domain_engine.create
          ~space:
            (Barriers.Domain_space.create
               (Barriers.Domain.central_wall (Grid.create ~side:16 ()) ~gap:2)
               ~radius:4 ~los_blocking:true)
          (spec ~agents:8 ~max_steps:(100 * 16 * 16))));
  let box_side = sqrt (16. /. 0.5) in
  let radius =
    0.8 *. Mobile_network.Theory.continuum_critical_radius ~box_side ~agents:16
  in
  same "density, rc_mult and sigma_frac"
    (Runner.run_cell
       (cell
          {|{"space": "continuum", "agents": 16, "density": 0.5,
             "rc_mult": 0.8, "sigma_frac": 0.5}|})
       ~seed:4 ~trial:1)
    (Continuum_engine.run
       (Continuum_engine.create
          ~space:
            (Continuum.Space.create ~box_side ~radius ~sigma:(radius *. 0.5)
               ~agents:16)
          (spec ~agents:16 ~max_steps:1_000_000)))

(* ---- checkpoints -------------------------------------------------------- *)

let test_checkpoint_lifecycle () =
  with_temp_dir (fun root ->
      Alcotest.(check int)
        "empty root has no pending jobs" 0
        (List.length (Checkpoint.list_pending ~root));
      Checkpoint.write ~root ~id:"bbb" ~text:"{\"agents\": 2}";
      Checkpoint.write ~root ~id:"aaa" ~text:"{}";
      Alcotest.(check (list (pair string string)))
        "pending jobs listed sorted by id"
        [ ("aaa", "{}"); ("bbb", "{\"agents\": 2}") ]
        (Checkpoint.list_pending ~root);
      Checkpoint.remove ~root ~id:"aaa";
      Checkpoint.remove ~root ~id:"aaa";
      Alcotest.(check (list (pair string string)))
        "remove is idempotent"
        [ ("bbb", "{\"agents\": 2}") ]
        (Checkpoint.list_pending ~root))

(* ---- daemon requests ------------------------------------------------------ *)

let decode line =
  match Daemon.decode_request line with
  | Ok r -> r
  | Error msg -> Alcotest.failf "%s rejected: %s" line msg

(* every request shape the daemon accepts: (label, decoded, line) *)
let valid_requests =
  [
    ( "submit, defaults",
      Daemon.Submit
        { text = "{}"; filename = None; progress = false; series = false },
      {|{"op":"submit","text":"{}"}|} );
    ( "submit, every field",
      Daemon.Submit
        { text = "{}"; filename = Some "a.json"; progress = true; series = true },
      {|{"op":"submit","text":"{}","filename":"a.json","progress":true,
       "series":true}|} );
    ( "check",
      Daemon.Check { text = "{}"; filename = None },
      {|{"op":"check","text":"{}"}|} );
    ("health", Daemon.Health, {|{"op":"health"}|});
    ( "metrics, default format",
      Daemon.Metrics { prom = false },
      {|{"op":"metrics"}|} );
    ( "metrics, prom",
      Daemon.Metrics { prom = true },
      {|{"op":"metrics","format":"prom"}|} );
    ( "watch, defaults",
      Daemon.Watch { interval_ms = 1000; count = 0 },
      {|{"op":"watch"}|} );
    ( "watch, as serve-watch sends it",
      Daemon.Watch { interval_ms = 50; count = 0 },
      {|{"op":"watch","interval_ms":50,"count":0}|} );
    ("shutdown", Daemon.Shutdown, {|{"op":"shutdown"}|});
  ]

let test_decode_requests () =
  List.iter
    (fun (label, expected, line) ->
      Alcotest.(check bool) label true (decode line = expected))
    valid_requests

(* The decoder is total: a mutant of a valid request decodes, or is
   rejected with a line:col diagnostic; it never raises. *)
let prop_mutated_requests =
  QCheck.Test.make ~name:"mutated requests never raise" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         oneofl (List.map (fun (_, _, line) -> line) valid_requests)
         >>= Qgen.mutate))
    (fun line ->
      match Daemon.decode_request line with
      | Ok _ -> true
      | Error msg -> Qgen.has_position msg)

(* A mistyped or out-of-range field is an error at its value, never a
   silent default. *)
let test_reject_requests () =
  List.iter
    (fun (line, expected) ->
      match Daemon.decode_request line with
      | Ok _ -> Alcotest.failf "%s accepted" line
      | Error msg -> Alcotest.(check string) line expected msg)
    [
      ( {|{"op":"submit","text":"{}","progress":"yes"}|},
        "1:39: progress must be a boolean" );
      ( {|{"op":"submit","text":"{}","series":1}|},
        "1:37: series must be a boolean" );
      ({|{"op":"submit","text":3}|}, "1:23: text must be a string");
      ( {|{"op":"check","text":"{}","filename":["a"]}|},
        "1:38: filename must be a string" );
      ({|{"op":"submit"}|}, "1:1: submit: missing \"text\"");
      ( {|{"op":"watch","interval_ms":"x"}|},
        "1:29: interval_ms must be an integer" );
      ( {|{"op":"watch","interval_ms":0}|},
        "1:29: interval_ms must be a positive integer" );
      ( {|{"op":"watch","count":-1}|},
        "1:23: count must be a non-negative integer" );
      ( {|{"op":"metrics","format":"xml"}|},
        "1:26: format must be \"json\" or \"prom\"" );
      ({|{"op":"frobnicate"}|}, "1:7: unknown op \"frobnicate\"");
      ({|{"op":7}|}, "1:7: op must be a string");
      ({|{"text":"{}"}|}, "1:1: missing \"op\"");
      ({|["submit"]|}, "1:1: request must be an object");
      ({|{"op":"submit",|}, "1:16: bad request: expected \", found end of input");
    ]

let () =
  Alcotest.run "service"
    [
      ( "store",
        [
          Alcotest.test_case "round-trip and counters" `Quick
            test_store_roundtrip;
          Alcotest.test_case "registry counters" `Quick
            test_store_counters_in_registry;
        ] );
      ( "runner",
        [
          Alcotest.test_case "jobs-independent bytes" `Quick
            test_runner_jobs_independent;
          Alcotest.test_case "warm cache byte-identical, no recompute" `Quick
            test_runner_warm_cache;
          Alcotest.test_case "partial-cache resume" `Quick
            test_runner_partial_cache_resume;
          Alcotest.test_case "progress ordering" `Quick
            test_runner_progress_order;
          Alcotest.test_case "streamed lines = body" `Quick
            test_runner_streaming;
          Alcotest.test_case "per-cell series artifacts" `Quick
            test_runner_series_dir;
          Alcotest.test_case "payload determinism" `Quick
            test_run_payload_deterministic;
          Alcotest.test_case "space-specific cells" `Quick
            test_run_cell_space_fields;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "requests decode" `Quick test_decode_requests;
          Alcotest.test_case "bad requests rejected" `Quick
            test_reject_requests;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 24 |])
            prop_mutated_requests;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "lifecycle" `Quick test_checkpoint_lifecycle;
        ] );
    ]
