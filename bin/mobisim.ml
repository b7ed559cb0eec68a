(* mobisim — command-line front end for the sparse mobile network
   simulator and the paper-reproduction experiments. *)

open Cmdliner

module Config = Mobile_network.Config
module Protocol = Mobile_network.Protocol
module Simulation = Mobile_network.Simulation
module Ast = Scenario.Ast

(* --- files ------------------------------------------------------------------ *)

let read_text_file what path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error e ->
    Printf.eprintf "cannot read %s: %s\n" what e;
    exit 2

(* Output files are written after the run: an unwritable path is a
   usage error (exit 2), not an uncaught exception. *)
let write_text_file path text =
  try Out_channel.with_open_bin path (fun oc -> output_string oc text)
  with Sys_error e ->
    (* open's message already leads with the path *)
    let prefix = path ^ ": " in
    let n = String.length prefix in
    let reason =
      if String.starts_with ~prefix e then String.sub e n (String.length e - n)
      else e
    in
    Printf.eprintf "cannot write %s: %s\n" path reason;
    exit 2

(* Reject out-of-range arguments as a usage error (exit 2) before they
   reach a library precondition. *)
let require checks =
  match
    List.filter_map (fun (ok, msg) -> if ok then None else Some msg) checks
  with
  | [] -> ()
  | errs ->
      List.iter (Printf.eprintf "invalid arguments: %s\n") errs;
      exit 2

let positive x = x > 0. && Float.is_finite x

(* --- shared argument definitions ----------------------------------------- *)

(* Run-parameter defaults are the scenario defaults: a flag left unset
   and a scenario field left out mean the same run. *)

let side_arg =
  let doc = "Grid side length (the paper's n is side * side)." in
  Arg.(
    value & opt int (List.hd Ast.default.Ast.sides)
    & info [ "side" ] ~docv:"SIDE" ~doc)

let agents_arg =
  let doc = "Number of agents (the paper's k)." in
  Arg.(
    value & opt int (List.hd Ast.default.Ast.agents)
    & info [ "k"; "agents" ] ~docv:"K" ~doc)

let radius_arg =
  let doc = "Transmission radius r (Manhattan distance)." in
  Arg.(
    value & opt int (List.hd Ast.default.Ast.radii)
    & info [ "r"; "radius" ] ~docv:"R" ~doc)

let seed_arg =
  let doc = "Deterministic master seed." in
  Arg.(value & opt int Ast.default.Ast.seed & info [ "seed" ] ~docv:"SEED" ~doc)

let trial_arg =
  let doc = "Trial (replicate) index; distinct trials are independent." in
  Arg.(value & opt int 0 & info [ "trial" ] ~docv:"TRIAL" ~doc)

let ast_conv of_string to_string =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (of_string s)),
      fun fmt v -> Format.pp_print_string fmt (to_string v) )

let protocol_arg =
  let doc =
    "Protocol: broadcast, gossip, frog, broadcast-cover, cover-walks or \
     predator-prey:<preys>."
  in
  Arg.(
    value
    & opt
        (ast_conv Ast.protocol_of_string Ast.protocol_to_string)
        (List.hd Ast.default.Ast.protocols)
    & info [ "protocol" ] ~docv:"PROTO" ~doc)

let kernel_arg =
  let doc =
    "Mobility kernel: lazy (paper's 1/5 walk), simple, lazy-half or \
     jump:<rho> (the dense-baseline jump within Manhattan distance rho)."
  in
  Arg.(
    value
    & opt
        (ast_conv Ast.kernel_of_string Ast.kernel_to_string)
        (List.hd Ast.default.Ast.kernels)
    & info [ "kernel" ] ~docv:"KERNEL" ~doc)

let torus_arg =
  let doc = "Use a torus (periodic boundary) instead of the bounded grid." in
  Arg.(value & flag & info [ "torus" ] ~doc)

let max_steps_arg =
  let doc = "Step cap (default: a generous cap derived from n)." in
  Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"STEPS" ~doc)

let quick_arg =
  let doc = "Shrink grids and trial counts (used by tests/CI)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let csv_dir_arg =
  let doc = "Also write each experiment's table as CSV into $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for trial/experiment fan-out (default: the \
     recommended domain count, capped at 8). Results are identical for \
     every value; 1 disables parallelism."
  in
  Arg.(
    value
    & opt int (Runtime.Pool.recommended_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let metrics_arg =
  let doc =
    "Write an observability snapshot (sorted JSON: per-phase simulation \
     timings, pool queue-wait/busy-fraction, per-domain GC deltas) to \
     $(docv) after the run, and print the human-readable table to stderr. \
     Metrics are diagnostics only: they never change results."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_events_arg =
  let doc =
    "Write a Chrome trace-event timeline (engine phase spans, pool task \
     lifecycle events, GC stop-the-world instants, per-domain) to $(docv) \
     after the run; open it in Perfetto (ui.perfetto.dev) or \
     chrome://tracing. Tracing is bounded-memory (a fixed ring per domain; \
     overflow is counted, never fatal) and diagnostics only: it never \
     changes results."
  in
  Arg.(value & opt (some string) None & info [ "trace-events" ] ~docv:"FILE" ~doc)

let series_arg =
  let doc =
    "Record a per-step timeseries (informed count, frontier, component \
     count, largest island, coverage, theory-curve residual, per-phase \
     ns, GC counters; fixed capacity with power-of-two decimation) and \
     write it as schema'd NDJSON to $(docv) after the run. Pure \
     observation: it never changes results."
  in
  Arg.(value & opt (some string) None & info [ "series" ] ~docv:"FILE" ~doc)

(* The run's series recorder and its destination: `--series FILE`
   (bounded, decimating) or `--trace-out FILE` (the same record at
   stride 1 — storage grows on demand, so an unbounded capacity costs
   memory only for the steps the run takes). Without either no recorder
   exists and the engine keeps its zero-allocation disabled path. *)
let series_output ~series_file ~trace_out =
  let create ?capacity path =
    Some
      ( path,
        Obs.Series.create ?capacity
          ~columns:Mobile_network.Engine.series_columns () )
  in
  match (series_file, trace_out) with
  | Some _, Some _ ->
      Printf.eprintf "--series and --trace-out are mutually exclusive\n";
      exit 2
  | Some path, None -> create path
  | None, Some path -> create ~capacity:max_int path
  | None, None -> None

let finish_series out ~meta =
  Option.iter
    (fun (path, sr) ->
      write_text_file path (Obs.Series.export_string ~meta sr);
      Printf.eprintf "series: wrote %s (%d rows, stride %d)\n" path
        (Obs.Series.rows sr) (Obs.Series.stride sr))
    out

(* The run-level fields [Engine.validate_series] checks the trajectory
   columns against. *)
let outcome_meta ~population ~protocol ~completed =
  [
    ("population", Obs.Json.Int population);
    ("protocol", Obs.Json.String (Protocol.to_string protocol));
    ("completed", Obs.Json.Bool completed);
  ]

(* Install a recording ambient tracer (and hand it to the ambient pool)
   and return the finalizer that writes the merged timeline to FILE.
   With [None] everything stays on the null tracer. *)
let install_trace path =
  match path with
  | None -> fun () -> ()
  | Some path ->
      let tr = Obs.Tracer.create () in
      Obs.Tracer.set_ambient tr;
      Runtime.Pool.set_ambient_tracer tr;
      fun () ->
        write_text_file path (Obs.Tracer.export_string tr);
        Printf.eprintf "trace: wrote %s (%d events, %d dropped)\n" path
          (Obs.Tracer.events tr) (Obs.Tracer.dropped tr)

(* Run one simulation thunk as a single ambient-pool job. At the default
   ambient size (jobs = 1) the pool executes it inline, on this domain,
   in order — results and output are identical to calling [f] directly —
   but the run shows up as a [pool.submit]/[pool.dequeue]/[pool.task]
   lifecycle on the trace timeline, so one-shot `simulate` traces carry
   the same three layers (pool, engine phases, GC) as experiment runs. *)
let as_pool_job f =
  match
    Runtime.Pool.map (Runtime.Pool.ambient ()) ~f:(fun _ () -> f ()) [ () ]
  with
  | [ r ] -> r
  | _ -> assert false

(* Install a recording ambient sink and return the finalizer that
   publishes derived gauges, writes FILE and prints the table. With
   [None] everything stays on the null sink (the no-op default). *)
let install_metrics ?(pool = false) path =
  match path with
  | None -> fun () -> ()
  | Some path ->
      let reg = Obs.Registry.create () in
      let sink = Obs.Sink.of_registry reg in
      Obs.Sink.set_ambient sink;
      if pool then Runtime.Pool.set_ambient_metrics sink;
      let gc0 = Obs.Gcstats.global () in
      let wall = Obs.Clock.now_ns () in
      fun () ->
        (* whole-process view from the main domain, next to the pool's
           per-domain rows *)
        Obs.Gcstats.accumulate
          (Obs.Gcstats.counters reg ~prefix:"process.gc")
          (Obs.Gcstats.delta ~before:gc0 ~after:(Obs.Gcstats.global ()));
        Obs.Metric.Gauge.set
          (Obs.Registry.gauge reg "process.wall_s")
          (Obs.Clock.ns_to_s (Obs.Clock.now_ns () - wall));
        if pool then Runtime.Pool.publish_stats (Runtime.Pool.ambient ());
        write_text_file path (Obs.Snapshot.to_json_string reg);
        prerr_string (Obs.Snapshot.to_table reg);
        Printf.eprintf "metrics: wrote %s\n" path

(* --- fault plans ----------------------------------------------------------- *)

let faults_file_arg =
  let doc =
    "Read a declarative fault plan from the JSON file $(docv): optional \
     fields loss_p (per-contact loss probability), outage (object with off \
     and period — a periodic global radio blackout), windows (list of \
     {from, until, agent?} outage intervals), churn ({leave_p, return_p?} \
     departure/arrival probabilities), silent and deaf (agent-index lists; \
     byzantine roles). The plan is validated; unknown fields are an error. \
     Fault randomness draws from its own seeded streams, so runs replay \
     exactly from (seed, trial, plan) at any --jobs. Grid space only."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"FILE" ~doc)

let loss_p_arg =
  let doc =
    "Shorthand: per-contact message-loss probability in [0,1] (overrides \
     the plan file's loss_p). Grid space only."
  in
  Arg.(value & opt (some float) None & info [ "loss-p" ] ~docv:"P" ~doc)

let outage_arg =
  let parse s =
    match String.split_on_char ':' s with
    | [ off; period ] -> (
        match (int_of_string_opt off, int_of_string_opt period) with
        | Some off, Some period -> Ok (off, period)
        | _ -> Error (`Msg "expected OFF:PERIOD (two integers)"))
    | _ -> Error (`Msg "expected OFF:PERIOD")
  in
  let print fmt (off, period) = Format.fprintf fmt "%d:%d" off period in
  let outage_conv = Arg.conv (parse, print) in
  let doc =
    "Shorthand: periodic global radio outage $(docv) = OFF:PERIOD — the \
     radio is down for the first OFF steps of every PERIOD steps \
     (overrides the plan file's outage). Grid space only."
  in
  Arg.(value & opt (some outage_conv) None & info [ "outage" ] ~docv:"OFF:PERIOD" ~doc)

let churn_arg =
  let parse s =
    let bad = `Msg "expected LEAVE[:RETURN] (floats in [0,1])" in
    match String.split_on_char ':' s with
    | [ l ] -> (
        match float_of_string_opt l with
        | Some leave -> Ok (leave, 1.0)
        | None -> Error bad)
    | [ l; r ] -> (
        match (float_of_string_opt l, float_of_string_opt r) with
        | Some leave, Some return -> Ok (leave, return)
        | _ -> Error bad)
    | _ -> Error bad
  in
  let print fmt (l, r) = Format.fprintf fmt "%g:%g" l r in
  let churn_conv = Arg.conv (parse, print) in
  let doc =
    "Shorthand: agent churn — each present agent departs with per-step \
     probability LEAVE, each absent one returns with probability RETURN \
     (default 1.0). Overrides the plan file's churn. Grid space only."
  in
  Arg.(value & opt (some churn_conv) None & info [ "churn" ] ~docv:"LEAVE[:RETURN]" ~doc)

(* Merge the declarative plan file (if any) with the shorthand overrides
   into one plan. Exits with the parser/validator message on a bad file;
   the shorthands are checked with the rest of the run by the scenario
   compiler. *)
let load_fault_plan faults_file loss_p outage churn =
  let base =
    match faults_file with
    | None -> Faults.Plan.empty
    | Some path -> (
        let text = read_text_file "fault plan" path in
        match Faults.Plan.of_string ~filename:path text with
        | Ok p -> p
        | Error msg ->
            (* the message already carries file:line:col *)
            Printf.eprintf "invalid fault plan: %s\n" msg;
            exit 2)
  in
  let p =
    match loss_p with
    | Some l -> { base with Faults.Plan.loss_p = l }
    | None -> base
  in
  let p =
    match outage with Some d -> { p with Faults.Plan.duty = Some d } | None -> p
  in
  match churn with
  | Some (leave_p, return_p) ->
      { p with Faults.Plan.churn = Some { Faults.Plan.leave_p; return_p } }
  | None -> p

(* --- simulate ------------------------------------------------------------- *)

let space_arg =
  let doc =
    "Space instance to run the shared engine on: grid (the paper's model; \
     full protocol/kernel support), continuum (Brownian agents in a \
     side x side box, r and sigma = r/4 in continuous units) or domain \
     (an unobstructed barrier domain). Non-grid spaces run a plain \
     broadcast: there the grid-only flags \
     --protocol/--kernel/--torus/--faults/--loss-p/--outage/--churn get \
     the scenario compiler's diagnostic and \
     --trace/--render a usage error (exit 2 either way)."
  in
  Arg.(
    value
    & opt
        (ast_conv Ast.space_of_string Ast.space_to_string)
        Ast.default.Ast.space
    & info [ "space" ] ~docv:"SPACE" ~doc)

(* Run one compiled cell and print its per-space header and outcome
   lines. The engine parameters, non-grid defaults included, come from
   [Service.Runner.run_cell], the dispatch the service and [--scenario]
   also use. *)
let run_simulate_cell (cell : Ast.cell) ~seed ~trial ~trace ~render metrics
    trace_events series =
  let finish_metrics = install_metrics metrics in
  let finish_trace = install_trace trace_events in
  let side = cell.Ast.c_side
  and agents = cell.Ast.c_agents
  and radius = cell.Ast.c_radius in
  let meta =
    match cell.Ast.c_space with
    | Ast.Grid ->
        let cfg = Ast.cell_config cell ~seed ~trial in
        Printf.printf "config: %s\n" (Config.to_string cfg);
        Printf.printf "n = %d nodes, r_c = %.2f, subcritical: %b\n"
          (Config.n cfg)
          (Config.percolation_radius cfg)
          (Config.is_subcritical cfg);
        [
          ("space", Obs.Json.String "grid");
          ("config", Obs.Json.String (Config.to_string cfg));
          ("side", Obs.Json.Int side);
          ("nodes", Obs.Json.Int (Config.n cfg));
        ]
    | Ast.Continuum ->
        let cfg = Service.Runner.continuum_config cell ~seed ~trial in
        let rc =
          Continuum.critical_radius ~box_side:cfg.Continuum.box_side ~agents
        in
        Printf.printf "continuum: box=%.1f k=%d r=%.2f (%.2f r_c) sigma=%.2f\n"
          cfg.Continuum.box_side agents cfg.Continuum.radius
          (if rc > 0. then cfg.Continuum.radius /. rc else 0.)
          cfg.Continuum.sigma;
        [
          ("space", Obs.Json.String "continuum");
          ("side", Obs.Json.Int side);
          ("agents", Obs.Json.Int agents);
          ("radius", Obs.Json.Float cfg.Continuum.radius);
          ("seed", Obs.Json.Int seed);
          ("trial", Obs.Json.Int trial);
        ]
    | Ast.Domain ->
        Printf.printf "domain: open %dx%d, k=%d r=%d\n" side side agents radius;
        [
          ("space", Obs.Json.String "domain");
          ("side", Obs.Json.Int side);
          ("nodes", Obs.Json.Int (side * side));
          ("agents", Obs.Json.Int agents);
          ("radius", Obs.Json.Int radius);
          ("seed", Obs.Json.Int seed);
          ("trial", Obs.Json.Int trial);
        ]
  in
  let on_step sim =
    if trace > 0 && Simulation.time sim mod trace = 0 then
      Printf.printf
        "t=%7d informed=%5d frontier_x=%4d max_island=%3d covered=%d\n"
        (Simulation.time sim)
        (Simulation.informed_count sim)
        (Simulation.frontier_x sim)
        (Simulation.max_island sim)
        (Simulation.covered_count sim);
    if render > 0 && Simulation.time sim mod render = 0 then
      print_string (Render.frame sim)
  in
  let o =
    as_pool_job (fun () ->
        Service.Runner.run_cell ?series:(Option.map snd series) ~on_step cell
          ~seed ~trial)
  in
  (match (cell.Ast.c_space, o.Service.Runner.completed) with
  | _, true -> Printf.printf "completed in %d steps\n" o.Service.Runner.steps
  | Ast.Grid, false ->
      Printf.printf "TIMED OUT after %d steps\n" o.Service.Runner.steps
  | (Ast.Continuum | Ast.Domain), false ->
      Printf.printf "TIMED OUT after %d steps (informed %d/%d)\n"
        o.Service.Runner.steps o.Service.Runner.informed agents);
  (match cell.Ast.c_space with
  | Ast.Grid ->
      Printf.printf "final: informed=%d covered=%d\n" o.Service.Runner.informed
        o.Service.Runner.covered
  | Ast.Continuum | Ast.Domain -> ());
  let protocol = cell.Ast.c_protocol in
  finish_series series
    ~meta:
      (meta
      @ outcome_meta
          ~population:(Protocol.population protocol ~k:agents)
          ~protocol ~completed:o.Service.Runner.completed);
  finish_trace ();
  finish_metrics ()

(* A scenario file pins every semantic parameter, so a flag that moves
   the flag-built scenario off [Ast.default] (or a run option the
   scenario path does not take) would be dropped silently without this
   warning. *)
let warn_scenario_conflicts flags ~trial ~trace ~render =
  let fields t =
    match Ast.canonical_json t with Obs.Json.Assoc kvs -> kvs | _ -> []
  in
  let moved =
    (* the canonical form lists the same keys in the same order *)
    List.filter_map
      (fun ((k, v), (_, d)) ->
        if String.equal (Obs.Json.to_string v) (Obs.Json.to_string d) then None
        else Some k)
      (List.combine (fields flags) (fields Ast.default))
    @ List.filter_map
        (fun (set, name) -> if set then Some name else None)
        [
          (trial <> 0, "trial");
          (trace > 0, "trace");
          (render > 0, "render");
        ]
  in
  if moved <> [] then
    Printf.eprintf
      "warning: --scenario defines the whole run; ignoring conflicting %s \
       (the scenario file wins)\n"
      (String.concat ", " moved)

let run_simulate_scenario path metrics trace_events series =
  let text = read_text_file "scenario" path in
  match Scenario.Compile.compile ~filename:path text with
  | Error errs ->
      List.iter (fun e -> Printf.eprintf "%s\n" e) errs;
      exit 2
  | Ok compiled -> (
      match compiled.Scenario.Compile.cells with
      | [ cell ] ->
          let seed = compiled.Scenario.Compile.seed in
          let finish_metrics = install_metrics metrics in
          let finish_trace = install_trace trace_events in
          Printf.printf "scenario %s: hash=%s seed=%d trial=0\n" path
            compiled.Scenario.Compile.hash seed;
          Printf.printf "cell: %s\n"
            (Obs.Json.to_string (Ast.cell_json cell));
          let payload =
            as_pool_job (fun () ->
                Service.Runner.run_payload ?series:(Option.map snd series)
                  cell ~seed ~trial:0)
          in
          Printf.printf "result: %s\n" payload;
          finish_series series
            ~meta:
              [
                ("cell", Ast.cell_json cell);
                ("hash", Obs.Json.String (Ast.cell_hash cell));
                ("seed", Obs.Json.Int seed);
                ("trial", Obs.Json.Int 0);
              ];
          finish_trace ();
          finish_metrics ()
      | cells ->
          Printf.eprintf
            "scenario %s desugars to %d cells; 'simulate' runs exactly one — \
             use 'mobisim submit' (or singleton axes) for sweeps\n"
            path (List.length cells);
          exit 2)

(* The flags describe a one-cell scenario: it compiles through the same
   validator as a scenario file and runs through the same dispatch. *)
let run_simulate scenario space side agents radius protocol kernel seed trial
    max_steps trace render torus trace_out metrics trace_events series_file
    faults_file loss_p outage churn =
  let series = series_output ~series_file ~trace_out in
  let flags =
    {
      Ast.default with
      Ast.space;
      sides = [ side ];
      agents = [ agents ];
      radii = [ radius ];
      protocols = [ protocol ];
      kernels = [ kernel ];
      torus;
      seed;
      max_steps;
      faults = load_fault_plan faults_file loss_p outage churn;
    }
  in
  match scenario with
  | Some path ->
      warn_scenario_conflicts flags ~trial ~trace ~render;
      run_simulate_scenario path metrics trace_events series
  | None -> (
      (match space with
      | Ast.Grid -> ()
      | Ast.Continuum | Ast.Domain ->
          if trace > 0 || render > 0 then begin
            Printf.eprintf "--trace and --render need --space grid\n";
            exit 2
          end);
      match Scenario.Compile.compile_ast flags with
      | Error errs ->
          List.iter (fun e -> Printf.eprintf "%s\n" e) errs;
          exit 2
      | Ok compiled ->
          List.iter
            (fun cell ->
              run_simulate_cell cell ~seed ~trial ~trace ~render metrics
                trace_events series)
            compiled.Scenario.Compile.cells)

let simulate_cmd =
  let trace =
    let doc = "Print a status line every $(docv) steps (0 = silent)." in
    Arg.(value & opt int 0 & info [ "trace" ] ~docv:"N" ~doc)
  in
  let render =
    let doc = "Print an ASCII frame every $(docv) steps (0 = never)." in
    Arg.(value & opt int 0 & info [ "render" ] ~docv:"N" ~doc)
  in
  let trace_out =
    let doc =
      "Record the run's series at stride 1 — one row per step, including \
       the informed count, frontier, largest island and coverage — and \
       write it as schema'd NDJSON to $(docv) after the run, with the \
       run's population, protocol and outcome under meta; \
       'validate-metrics' re-checks the engine's invariants on it. Works \
       on every space. Cannot be combined with --series."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let scenario =
    let doc =
      "Run the single-cell scenario file $(docv) instead of the flag-built \
       configuration: the file's space/side/agents/protocol/faults/... \
       define the run (its seed, trial 0), and the canonical result payload \
       is printed — byte-identical to the daemon's cached result line for \
       the same cell. Conflicting explicit flags are ignored with a \
       warning; the file must desugar to exactly one cell (use 'mobisim \
       submit' for sweeps)."
    in
    Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"FILE" ~doc)
  in
  let term =
    Term.(
      const run_simulate $ scenario $ space_arg $ side_arg $ agents_arg
      $ radius_arg
      $ protocol_arg $ kernel_arg $ seed_arg $ trial_arg $ max_steps_arg
      $ trace $ render $ torus_arg $ trace_out $ metrics_arg
      $ trace_events_arg $ series_arg $ faults_file_arg $ loss_p_arg
      $ outage_arg $ churn_arg)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a single simulation and report its outcome.")
    term

(* --- experiments ---------------------------------------------------------- *)

let write_csv dir (result : Experiments.Exp_result.t) =
  (* a directory that cannot be made surfaces as the write's error *)
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (String.lowercase_ascii result.id ^ ".csv") in
  write_text_file path (Experiments.Exp_result.to_csv result);
  Printf.printf "wrote %s\n" path

let run_experiments ids quick seed jobs csv_dir metrics trace_events series_dir
    =
  if jobs < 1 then begin
    Printf.eprintf "--jobs must be >= 1 (got %d)\n" jobs;
    exit 2
  end;
  Runtime.Pool.set_ambient_jobs jobs;
  Option.iter
    (fun dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Obs.Series.set_ambient_dir (Some dir))
    series_dir;
  let finish_metrics = install_metrics ~pool:true metrics in
  let finish_trace = install_trace trace_events in
  let entries =
    match ids with
    | [] -> Experiments.Registry.all
    | ids ->
        List.map
          (fun id ->
            match Experiments.Registry.find id with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment %S; known: %s\n" id
                  (String.concat ", " (Experiments.Registry.ids ()));
                exit 2)
          ids
  in
  let fmt = Format.std_formatter in
  let results =
    Experiments.Registry.run_entries ~quick ~seed
      ~on_result:(fun result ->
        Experiments.Exp_result.render fmt result;
        Option.iter (fun dir -> write_csv dir result) csv_dir)
      entries
  in
  let failed =
    List.filter (fun r -> not (Experiments.Exp_result.all_passed r)) results
  in
  Format.pp_print_flush fmt ();
  finish_trace ();
  finish_metrics ();
  if failed <> [] then begin
    Printf.printf "shape checks FAILED in: %s\n"
      (String.concat ", "
         (List.map (fun (r : Experiments.Exp_result.t) -> r.id) failed));
    exit 1
  end
  else Printf.printf "all shape checks passed.\n"

let exp_cmd =
  let ids =
    let doc = "Experiment ids to run (default: all). See 'mobisim list'." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let series_dir =
    let doc =
      "Also record a per-step timeseries for trial 0 of every grid sweep \
       point and write each as schema'd NDJSON into $(docv) (one \
       <config>.series.json per point). Pure observation: results and \
       experiment output are byte-identical at any --jobs."
    in
    Arg.(value & opt (some string) None & info [ "series-dir" ] ~docv:"DIR" ~doc)
  in
  let term =
    Term.(
      const run_experiments $ ids $ quick_arg $ seed_arg $ jobs_arg
      $ csv_dir_arg $ metrics_arg $ trace_events_arg $ series_dir)
  in
  Cmd.v
    (Cmd.info "exp"
       ~doc:"Run reproduction experiments and verify the paper's shapes.")
    term

let list_cmd =
  let run () =
    List.iter
      (fun (e : Experiments.Registry.entry) ->
        Printf.printf "%-4s %s\n" e.id e.summary)
      Experiments.Registry.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List all reproduction experiments.")
    Term.(const run $ const ())

(* --- percolation ---------------------------------------------------------- *)

let run_percolation side agents seed trials =
  require
    [
      (side > 0, "--side must be positive");
      (agents > 0, "--agents must be positive");
      (trials > 0, "--trials must be positive");
    ];
  let grid = Grid.create ~side () in
  let n = side * side in
  let rng = Prng.of_seed seed in
  let rc = Visibility.Percolation.rc_theory ~n ~k:agents in
  Printf.printf "n=%d k=%d: r_c (theory) = %.2f, Theorem-2 threshold = %.3f\n"
    n agents rc
    (Visibility.Percolation.sub_critical_radius ~n ~k:agents);
  let est = Visibility.Percolation.estimate_rc grid rng ~k:agents ~trials () in
  Printf.printf "estimated r_c (giant fraction >= 0.5): %d\n" est;
  List.iter
    (fun mult ->
      let radius = int_of_float (mult *. rc) in
      let frac =
        Visibility.Percolation.giant_fraction_at grid rng ~k:agents ~radius
          ~trials
      in
      Printf.printf "r = %.2f rc (%3d): giant fraction %.3f\n" mult radius frac)
    [ 0.25; 0.5; 1.0; 1.5; 2.0 ]

let percolation_cmd =
  let trials =
    let doc = "Placements per radius." in
    Arg.(value & opt int 20 & info [ "trials" ] ~docv:"T" ~doc)
  in
  let term =
    Term.(const run_percolation $ side_arg $ agents_arg $ seed_arg $ trials)
  in
  Cmd.v
    (Cmd.info "percolation"
       ~doc:"Estimate the percolation radius of the visibility graph.")
    term

(* --- barrier domains --------------------------------------------------------- *)

let parse_plan side plan =
  let grid = Grid.create ~side () in
  match String.split_on_char ':' (String.lowercase_ascii plan) with
  | [ "open" ] -> Ok (Barriers.Domain.unobstructed grid)
  | [ "wall"; gap ] -> (
      match int_of_string_opt gap with
      | Some gap when gap >= 1 -> Ok (Barriers.Domain.central_wall grid ~gap)
      | Some _ | None -> Error "wall:<gap> needs a positive integer gap")
  | [ "rooms"; per_side; door ] -> (
      match (int_of_string_opt per_side, int_of_string_opt door) with
      | Some p, Some d when p >= 1 && d >= 1 ->
          Ok (Barriers.Domain.rooms grid ~rooms_per_side:p ~door:d)
      | _ -> Error "rooms:<per-side>:<door> needs positive integers")
  | _ -> Error "expected open, wall:<gap> or rooms:<per-side>:<door>"

let run_barrier side agents radius plan los seed trial max_steps show_map
    metrics =
  require
    [
      (side > 0, "--side must be positive");
      (agents > 0, "--agents must be positive");
      (radius >= 0, "--radius must be non-negative");
      (Option.fold ~none:true ~some:(fun m -> m >= 0) max_steps,
       "--max-steps must be non-negative");
    ];
  match parse_plan side plan with
  | Error msg ->
      Printf.eprintf "invalid floor plan %S: %s\n" plan msg;
      exit 2
  | Ok domain ->
      let finish_metrics = install_metrics metrics in
      if show_map then
        print_string (Render.domain_ascii ~max_width:64 domain);
      Printf.printf
        "plan=%s free=%d/%d connected=%b agents=%d r=%d los-blocking=%b\n"
        plan
        (Barriers.Domain.free_count domain)
        (side * side)
        (Barriers.Domain.is_connected domain)
        agents radius los;
      let report =
        Barriers.Barrier_sim.broadcast
          { Barriers.Barrier_sim.domain; agents; radius; los_blocking = los;
            seed; trial;
            max_steps =
              (match max_steps with Some m -> m | None -> 100 * side * side) }
      in
      (match report.Barriers.Barrier_sim.outcome with
      | Barriers.Barrier_sim.Completed ->
          Printf.printf "completed in %d steps\n"
            report.Barriers.Barrier_sim.steps
      | Barriers.Barrier_sim.Timed_out ->
          Printf.printf "TIMED OUT after %d steps (informed %d/%d)\n"
            report.Barriers.Barrier_sim.steps
            report.Barriers.Barrier_sim.informed agents);
      finish_metrics ()

let barrier_cmd =
  let plan =
    let doc =
      "Floor plan: open, wall:<gap> (central wall with a gap) or \
       rooms:<per-side>:<door>."
    in
    Arg.(value & opt string "wall:2" & info [ "plan" ] ~docv:"PLAN" ~doc)
  in
  let los =
    let doc = "Walls also block radio (line-of-sight connectivity)." in
    Arg.(value & flag & info [ "los-blocking" ] ~doc)
  in
  let show_map =
    let doc = "Print the floor plan before simulating." in
    Arg.(value & flag & info [ "map" ] ~doc)
  in
  let term =
    Term.(
      const run_barrier $ side_arg $ agents_arg $ radius_arg $ plan $ los
      $ seed_arg $ trial_arg $ max_steps_arg $ show_map $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "barrier"
       ~doc:
         "Broadcast on a domain with mobility/communication barriers (the \
          paper's par. 4 future work).")
    term

(* --- continuum ---------------------------------------------------------------- *)

let run_continuum agents density radius_mult sigma_frac seed trial metrics =
  require
    [
      (agents > 0, "--agents must be positive");
      (positive density, "--density must be positive and finite");
      (positive radius_mult, "--rc-mult must be positive and finite");
      (positive sigma_frac, "--sigma-frac must be positive and finite");
    ];
  let finish_metrics = install_metrics metrics in
  let box_side = sqrt (float_of_int agents /. density) in
  let rc = Continuum.critical_radius ~box_side ~agents in
  let radius = radius_mult *. rc in
  Printf.printf
    "k=%d box=%.2f density=%.2f r_c=%.3f r=%.3f (%.2f r_c) sigma=%.3f\n"
    agents box_side density rc radius radius_mult (radius *. sigma_frac);
  let report =
    Continuum.broadcast
      { Continuum.box_side; agents; radius; sigma = radius *. sigma_frac;
        seed; trial; max_steps = 1_000_000 }
  in
  (match report.Continuum.outcome with
  | Continuum.Completed ->
      Printf.printf "completed in %d steps\n" report.Continuum.steps
  | Continuum.Timed_out ->
      Printf.printf "TIMED OUT after %d steps (informed %d/%d)\n"
        report.Continuum.steps report.Continuum.informed agents);
  finish_metrics ()

let continuum_cmd =
  let density =
    let doc = "Agents per unit area (the box side follows from k)." in
    Arg.(value & opt float 1.0 & info [ "density" ] ~docv:"LAMBDA" ~doc)
  in
  let radius_mult =
    let doc = "Connection radius as a multiple of the percolation radius." in
    Arg.(value & opt float 0.5 & info [ "rc-mult" ] ~docv:"M" ~doc)
  in
  let sigma_frac =
    let doc = "Brownian step std as a fraction of the connection radius." in
    Arg.(value & opt float 0.25 & info [ "sigma-frac" ] ~docv:"F" ~doc)
  in
  let term =
    Term.(
      const run_continuum $ agents_arg $ density $ radius_mult $ sigma_frac
      $ seed_arg $ trial_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "continuum"
       ~doc:
         "Broadcast among Brownian agents in continuous space (the Peres et \
          al. model of par. 1.1).")
    term

(* --- metrics validation -------------------------------------------------- *)

let run_validate_metrics path =
  let text = read_text_file "metrics file" path in
  (* A trace-event file is a JSON array; a series file declares
     "schema":"mobisim-series/1" in its first line (NDJSON export) or
     top-level object; anything else is a metrics snapshot. *)
  let rec first_byte i =
    if i >= String.length text then '\x00'
    else
      match text.[i] with
      | ' ' | '\t' | '\n' | '\r' -> first_byte (i + 1)
      | c -> c
  in
  let is_series =
    let declares_series j =
      match Obs.Json.member "schema" j with
      | Some (Obs.Json.String s) -> String.equal s Obs.Series.schema
      | Some _ | None -> false
    in
    let first_line =
      match String.index_opt text '\n' with
      | Some i -> String.sub text 0 i
      | None -> text
    in
    match Obs.Json.parse first_line with
    | Ok j -> declares_series j
    | Error _ -> (
        (* pretty-printed single-document export *)
        match Obs.Json.parse text with
        | Ok j -> declares_series j
        | Error _ -> false)
  in
  if first_byte 0 = '[' then
    match Obs.Tracer.parse text with
    | Error e ->
        Printf.eprintf "INVALID trace-event file: %s\n" e;
        exit 1
    | Ok json ->
        let n =
          match json with Obs.Json.List events -> List.length events | _ -> 0
        in
        Printf.printf "trace-event file OK: %d events\n" n
  else if is_series then
    match
      Result.bind (Obs.Series.parse text) (fun json ->
          Result.map
            (fun () -> json)
            (Mobile_network.Engine.validate_series json))
    with
    | Error e ->
        Printf.eprintf "INVALID series file: %s\n" e;
        exit 1
    | Ok json ->
        let len name =
          match Obs.Json.member name json with
          | Some (Obs.Json.List l) -> List.length l
          | Some _ | None -> 0
        in
        let stride =
          match Obs.Json.member "stride" json with
          | Some (Obs.Json.Int s) -> s
          | Some _ | None -> 0
        in
        Printf.printf "series file OK: %d columns, %d rows, stride %d\n"
          (len "columns") (len "data") stride
  else
    match Obs.Snapshot.parse text with
    | Error e ->
        Printf.eprintf "INVALID metrics snapshot: %s\n" e;
        exit 1
    | Ok json ->
        let size section =
          match Obs.Json.member section json with
          | Some (Obs.Json.Assoc members) -> List.length members
          | Some _ | None -> 0
        in
        Printf.printf
          "metrics snapshot OK: %d counters, %d gauges, %d histograms\n"
          (size "counters") (size "gauges") (size "histograms")

let validate_metrics_cmd =
  let path =
    let doc =
      "Snapshot file written by '--metrics FILE', a Chrome trace-event \
       file written by '--trace-events FILE', or a per-step series file \
       written by '--series FILE' (auto-detected)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "validate-metrics"
       ~doc:
         "Parse a metrics snapshot written by --metrics, a trace-event \
          file written by --trace-events, or a per-step series written by \
          --series (auto-detected) and check its structure.")
    Term.(const run_validate_metrics $ path)

(* --- bench-check ----------------------------------------------------------- *)

(* Compare two perf-trajectory files (written by `make bench-json` /
   `bench/perf_probe.exe --json`): per-probe ns/step deltas, non-zero
   exit on any regression beyond the threshold. Probes present in only
   one file are listed but never fail the check, so adding or renaming
   probes does not break CI against an older baseline. *)

let read_bench_file path =
  let text = read_text_file "bench file" path in
  match Obs.Json.parse text with
  | Error e ->
      Printf.eprintf "INVALID bench file %s: %s\n" path e;
      exit 1
  | Ok json -> (
      match Obs.Json.member "probes" json with
      | Some (Obs.Json.Assoc probes) -> probes
      | Some _ | None ->
          Printf.eprintf "INVALID bench file %s: no \"probes\" object\n" path;
          exit 1)

let bench_number field probe json =
  match Obs.Json.member field json with
  | Some (Obs.Json.Float f) -> f
  | Some (Obs.Json.Int i) -> float_of_int i
  | Some _ | None ->
      Printf.eprintf "INVALID bench probe %S: missing numeric %S\n" probe field;
      exit 1

(* Allocation gating needs an absolute slack on top of the percentage:
   the steady-state probes sit at a couple of words/step, where a
   harmless 2-word wobble is a three-digit percentage. A probe only
   counts as an allocation regression when it exceeds the baseline by
   the percentage threshold AND by more than this many words/step. *)
let alloc_slack_words = 8.

let run_bench_check old_path new_path threshold alloc_threshold report_only =
  let old_probes = read_bench_file old_path
  and new_probes = read_bench_file new_path in
  let regressions = ref [] in
  Printf.printf "%-40s %12s %12s %9s %11s %11s\n" "probe" "old ns/step"
    "new ns/step" "delta" "old w/step" "new w/step";
  List.iter
    (fun (probe, nv) ->
      let ns_new = bench_number "ns_per_step" probe nv in
      let ws_new = bench_number "minor_words_per_step" probe nv in
      match List.assoc_opt probe old_probes with
      | None ->
          Printf.printf "%-40s %12s %12.1f %9s %11s %11.1f\n" probe "-" ns_new
            "new" "-" ws_new
      | Some ov ->
          let ns_old = bench_number "ns_per_step" probe ov in
          let ws_old = bench_number "minor_words_per_step" probe ov in
          let delta =
            if ns_old > 0. then (ns_new -. ns_old) /. ns_old *. 100. else 0.
          in
          let time_regressed = delta > threshold in
          let alloc_regressed =
            match alloc_threshold with
            | None -> false
            | Some pct ->
                ws_new -. ws_old > alloc_slack_words
                && ws_new > ws_old *. (1. +. (pct /. 100.))
          in
          if time_regressed || alloc_regressed then
            regressions := probe :: !regressions;
          Printf.printf "%-40s %12.1f %12.1f %+8.1f%% %11.1f %11.1f%s%s\n"
            probe ns_old ns_new delta ws_old ws_new
            (if time_regressed then "  REGRESSION" else "")
            (if alloc_regressed then "  ALLOC-REGRESSION" else ""))
    new_probes;
  List.iter
    (fun (probe, _) ->
      if not (List.mem_assoc probe new_probes) then
        Printf.printf "%-40s %12s %12s %9s\n" probe "-" "-" "gone")
    old_probes;
  match List.rev !regressions with
  | [] -> Printf.printf "bench-check OK (threshold %.0f%%)\n" threshold
  | rs ->
      Printf.printf "bench-check: %d probe(s) regressed beyond %.0f%%: %s\n"
        (List.length rs) threshold
        (String.concat ", " rs);
      if not report_only then exit 1

let bench_check_cmd =
  let old_path =
    let doc = "Baseline bench JSON (e.g. the committed BENCH_PR4.json)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD" ~doc)
  in
  let new_path =
    let doc = "Candidate bench JSON (e.g. a fresh 'make bench-json')." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW" ~doc)
  in
  let threshold =
    let doc = "Fail when a probe's ns/step grows by more than $(docv)%." in
    Arg.(value & opt float 25.0 & info [ "threshold" ] ~docv:"PCT" ~doc)
  in
  let alloc_threshold =
    let doc =
      "Also fail when a probe's minor_words_per_step grows by more than \
       $(docv)% over the baseline (and by more than 8 words/step in \
       absolute terms, so near-zero probes don't trip on noise). Off by \
       default."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "alloc-threshold" ] ~docv:"PCT" ~doc)
  in
  let report_only =
    let doc = "Print the comparison but always exit 0 (CI advisory mode)." in
    Arg.(value & flag & info [ "report-only" ] ~doc)
  in
  Cmd.v
    (Cmd.info "bench-check"
       ~doc:
         "Compare two perf-trajectory files from 'make bench-json' and fail \
          on ns/step or allocation regressions.")
    Term.(
      const run_bench_check $ old_path $ new_path $ threshold
      $ alloc_threshold $ report_only)

(* --- theory ----------------------------------------------------------------- *)

let run_theory side agents =
  require
    [
      (side > 0, "--side must be positive");
      (agents > 0, "--agents must be positive");
    ];
  let module Theory = Mobile_network.Theory in
  let n = side * side in
  let k = agents in
  Printf.printf "theory curves for n = %d (side %d), k = %d\n\n" n side k;
  let rows =
    [
      ("T_B = Theta~(n / sqrt k)         [Thm 1+2]", Theory.broadcast_theta ~n ~k);
      ("T_B lower bound n/(sqrt k ln^2 n) [Thm 2]", Theory.broadcast_lower ~n ~k);
      ("T_G gossip                        [Cor 2]", Theory.gossip_theta ~n ~k);
      ("cover time of k walks             [par.4]", Theory.cover_time_multi ~n ~k);
      ("predator-prey extinction          [par.4]", Theory.extinction_time ~n ~k);
      ("Wang et al. claim (refuted)     [par.1.1]", Theory.wang_claimed ~n ~k);
      ("Dimitriou et al. O(t* log k)    [par.1.1]", Theory.dimitriou_bound ~n ~k);
      ("Peres et al. polylog (r > r_c)  [par.1.1]", Theory.peres_polylog ~k);
    ]
  in
  List.iter (fun (label, v) -> Printf.printf "  %-45s %12.1f\n" label v) rows;
  Printf.printf "\nradii:\n";
  Printf.printf "  %-45s %12.2f\n" "percolation r_c = sqrt(n/k)"
    (Theory.percolation_radius ~n ~k);
  Printf.printf "  %-45s %12.3f\n" "Theorem 2 threshold sqrt(n/(64 e^6 k))"
    (Theory.subcritical_radius ~n ~k);
  Printf.printf "  %-45s %12.3f\n" "Lemma 6 island parameter gamma"
    (Theory.island_parameter ~n ~k);
  Printf.printf "  %-45s %12.2f\n" "Lemma 6 island size bound ln n"
    (Theory.island_size_bound ~n)

let theory_cmd =
  let term = Term.(const run_theory $ side_arg $ agents_arg) in
  Cmd.v
    (Cmd.info "theory"
       ~doc:"Print the paper's closed-form curves for given n and k.")
    term

(* --- scenario / service ---------------------------------------------------- *)

let scenario_file_pos =
  let doc = "Scenario file (JSON; see the README's scenario section)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let run_scenario_check path canonical =
  let text = read_text_file "scenario" path in
  match Scenario.Compile.compile ~filename:path text with
  | Error errs ->
      List.iter (fun e -> Printf.eprintf "%s\n" e) errs;
      exit 2
  | Ok compiled ->
      let c = compiled in
      if canonical then
        print_string (Scenario.Ast.to_string c.Scenario.Compile.ast)
      else
        Printf.printf "%s: OK hash=%s cells=%d trials=%d runs=%d\n" path
          c.Scenario.Compile.hash
          (List.length c.Scenario.Compile.cells)
          c.Scenario.Compile.trials
          (Scenario.Compile.total_runs c)

let scenario_check_cmd =
  let canonical =
    let doc =
      "Print the canonical form (every field explicit, fixed key order) \
       instead of the summary line. Two files whose canonical forms differ \
       only in the name field share a cache hash."
    in
    Arg.(value & flag & info [ "canonical" ] ~doc)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Compile a scenario file: report every diagnostic (file:line:col) \
          or the canonical hash and sweep size.")
    Term.(const run_scenario_check $ scenario_file_pos $ canonical)

let scenario_cmd =
  Cmd.group
    (Cmd.info "scenario"
       ~doc:"Work with declarative scenario files (compile-time checks).")
    [ scenario_check_cmd ]

let root_arg =
  let doc =
    "Service state directory (result cache, pending checkpoints, result \
     artifacts). Default: \\$MOBISIM_HOME or ./.mobisim."
  in
  Arg.(value & opt (some string) None & info [ "root" ] ~docv:"DIR" ~doc)

let socket_arg =
  let doc = "Daemon socket path. Default: <root>/daemon.sock." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let resolve_service root socket =
  let root = match root with Some r -> r | None -> Service.Daemon.default_root () in
  let socket =
    match socket with Some s -> s | None -> Service.Daemon.default_socket ~root
  in
  (root, socket)

let run_serve root socket jobs quiet =
  let root, socket_path = resolve_service root socket in
  Service.Daemon.serve ~quiet { Service.Daemon.root; socket_path; jobs }

let serve_cmd =
  let quiet =
    let doc = "Suppress the daemon's stderr status lines." in
    Arg.(value & flag & info [ "quiet" ] ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the mobisim job daemon: accept scenario submissions over a \
          Unix-domain socket, sweep them through the worker pool with a \
          content-addressed result cache, checkpoint in-flight jobs and \
          resume them on restart.")
    Term.(const run_serve $ root_arg $ socket_arg $ jobs_arg $ quiet)

let client_request socket_path req =
  match Service.Daemon.Client.request ~socket_path (Obs.Json.to_string req) with
  | Ok response -> response
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1

(* Exit status from a response's first line: an explicit "ok":false is
   a daemon-reported failure; an explicit "ok":true a success; anything
   else (raw-payload ops like metrics, watch or --prom) is success —
   the daemon reports failures only through "ok":false lines. *)
let first_line_ok first_line =
  match Obs.Json.parse first_line with
  | Error _ -> true
  | Ok j -> (
      match Obs.Json.member "ok" j with
      | Some (Obs.Json.Bool b) -> b
      | Some _ | None -> true)

(* The whole response is echoed to stdout either way (NDJSON in,
   NDJSON out). *)
let print_response response =
  print_string response;
  let first =
    match String.index_opt response '\n' with
    | None -> response
    | Some i -> String.sub response 0 i
  in
  if not (first_line_ok first) then exit 1

(* Streamed variant: print each line the moment it arrives, track the
   first line's verdict. *)
let stream_response socket_path req =
  let first = ref None in
  (match
     Service.Daemon.Client.request_stream ~socket_path
       ~on_line:(fun line ->
         if !first = None then first := Some line;
         print_string line;
         flush stdout)
       (Obs.Json.to_string req)
   with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1);
  match !first with
  | Some line when not (first_line_ok line) -> exit 1
  | Some _ | None -> ()

let run_submit path root socket progress series =
  let _, socket_path = resolve_service root socket in
  let text = read_text_file "scenario" path in
  let req =
    Obs.Json.Assoc
      ([
         ("op", Obs.Json.String "submit");
         ("text", Obs.Json.String text);
         ("filename", Obs.Json.String path);
       ]
      @ (if progress then [ ("progress", Obs.Json.Bool true) ] else [])
      @ if series then [ ("series", Obs.Json.Bool true) ] else [])
  in
  if progress then stream_response socket_path req
  else print_response (client_request socket_path req)

let submit_cmd =
  let progress =
    let doc =
      "Stream the response: {\"progress\":...} lines and each result line \
       printed the moment the daemon persists it (off by default, so \
       identical submissions get byte-identical responses whether served \
       cold or from cache). The streamed result lines are byte-identical \
       to the non-streaming body."
    in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let series =
    let doc =
      "Ask the daemon to also record a per-step timeseries per cell into \
       <root>/series/<cell hash>.series.json (an extra trial-0 run after \
       the sweep; the response and artifact bytes are unchanged)."
    in
    Arg.(value & flag & info [ "series" ] ~doc)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a scenario file to a running 'mobisim serve' daemon and \
          print the NDJSON response (header line, then one result line per \
          (cell, trial) run). Repeated submissions are served from the \
          result cache, byte-identically.")
    Term.(
      const run_submit $ scenario_file_pos $ root_arg $ socket_arg $ progress
      $ series)

let run_daemon_op op root socket =
  let _, socket_path = resolve_service root socket in
  print_response
    (client_request socket_path
       (Obs.Json.Assoc [ ("op", Obs.Json.String op) ]))

let daemon_op_cmd name ~doc op =
  Cmd.v (Cmd.info name ~doc)
    Term.(const (run_daemon_op op) $ root_arg $ socket_arg)

let serve_health_cmd =
  daemon_op_cmd "serve-health"
    ~doc:"Print a running daemon's health line (jobs, served, pending)."
    "health"

let run_serve_metrics root socket prom =
  let _, socket_path = resolve_service root socket in
  let req =
    Obs.Json.Assoc
      ([ ("op", Obs.Json.String "metrics") ]
      @ if prom then [ ("format", Obs.Json.String "prom") ] else [])
  in
  print_response (client_request socket_path req)

let serve_metrics_cmd =
  let prom =
    let doc =
      "Render the registry in Prometheus text exposition format instead of \
       JSON (point a Prometheus scraper at this command's output)."
    in
    Arg.(value & flag & info [ "prom" ] ~doc)
  in
  Cmd.v
    (Cmd.info "serve-metrics"
       ~doc:
         "Print a running daemon's metrics snapshot (cache hits/misses, \
          cells computed, pool stats) as one JSON line, or with $(b,--prom) \
          in Prometheus text exposition format.")
    Term.(const run_serve_metrics $ root_arg $ socket_arg $ prom)

let run_serve_watch root socket interval_ms count =
  let _, socket_path = resolve_service root socket in
  let req =
    Obs.Json.Assoc
      [
        ("op", Obs.Json.String "watch");
        ("interval_ms", Obs.Json.Int interval_ms);
        ("count", Obs.Json.Int count);
      ]
  in
  stream_response socket_path req

let serve_watch_cmd =
  let interval_ms =
    let doc = "Milliseconds between snapshots." in
    Arg.(value & opt int 1000 & info [ "interval-ms" ] ~docv:"MS" ~doc)
  in
  let count =
    let doc = "Stop after $(docv) snapshots (0 = stream until killed)." in
    Arg.(value & opt int 0 & info [ "count" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "serve-watch"
       ~doc:
         "Stream periodic metrics snapshots from a running daemon, one JSON \
          line per tick (the daemon is single-threaded: a watch occupies it \
          between submits).")
    Term.(const run_serve_watch $ root_arg $ socket_arg $ interval_ms $ count)

let serve_stop_cmd =
  daemon_op_cmd "serve-stop" ~doc:"Ask a running daemon to shut down."
    "shutdown"

(* --- main ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "mobisim"
      ~doc:
        "Simulator for information dissemination in sparse mobile networks \
         (Pettarin, Pietracaprina, Pucci, Upfal; PODC 2011)."
  in
  let group = Cmd.group info [ simulate_cmd; exp_cmd; list_cmd; percolation_cmd; theory_cmd;
       barrier_cmd; continuum_cmd; validate_metrics_cmd;
       bench_check_cmd; scenario_cmd; serve_cmd; submit_cmd; serve_health_cmd;
       serve_metrics_cmd; serve_watch_cmd; serve_stop_cmd ] in
  exit (Cmd.eval group)
