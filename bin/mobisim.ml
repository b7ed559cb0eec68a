(* mobisim — command-line front end for the sparse mobile network
   simulator and the paper-reproduction experiments. *)

open Cmdliner

module Config = Mobile_network.Config
module Engine = Mobile_network.Engine
module Percolation = Mobile_network.Percolation
module Protocol = Mobile_network.Protocol
module Simulation = Mobile_network.Simulation
module Theory = Mobile_network.Theory
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

(* Flags describe a scenario: compile it through the scenario validator,
   whose diagnostics make an invalid flag run a usage error (exit 2). *)
let compile_flags ast =
  match Scenario.Compile.compile_ast ast with
  | Ok compiled -> compiled
  | Error errs ->
      List.iter (fun e -> Printf.eprintf "%s\n" e) errs;
      exit 2

(* An agent count within [Config.max_population] can still be more than
   the process's memory holds: the positions, streams and index are
   allocated per agent. That is a usage error (exit 2) naming the
   count, not an internal one. The compiler does not model memory, so
   this handler is the last resort behind it. *)
let or_out_of_memory ~agents f =
  try f ()
  with Out_of_memory ->
    Printf.eprintf
      "out of memory: %d agents do not fit in this process's memory (use \
       fewer agents)\n"
      agents;
    exit 2

(* --- shared argument definitions ----------------------------------------- *)

(* Run-parameter defaults are the scenario defaults: a flag left unset
   and a scenario field left out mean the same run. *)

let side_info =
  Arg.info [ "side" ] ~docv:"SIDE"
    ~doc:"Grid side length (the paper's n is side * side)."

let side_arg = Arg.(value & opt int (List.hd Ast.default.Ast.sides) side_info)

let agents_arg =
  let doc = "Number of agents (the paper's k)." in
  Arg.(
    value & opt int (List.hd Ast.default.Ast.agents)
    & info [ "k"; "agents" ] ~docv:"K" ~doc)

(* simulate's --side and -r stay [None] when not given: --density and
   --rc-mult replace them, so even an explicit default conflicts *)
let given_arg default arg_info =
  Arg.(value & opt (some ~none:(string_of_int default) int) None arg_info)

let radius_arg =
  given_arg
    (List.hd Ast.default.Ast.radii)
    (Arg.info [ "r"; "radius" ] ~docv:"R"
       ~doc:"Transmission radius r (Manhattan distance).")

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

(* Checked while the command line is evaluated, so a bad value exits 2
   before the command makes anything (serve's --root, exp's output). *)
let jobs_arg =
  let doc =
    "Worker domains for trial/experiment fan-out (default: the \
     recommended domain count, capped at 8). Results are identical for \
     every value; 1 disables parallelism."
  in
  let check jobs =
    match Runtime.Pool.check_jobs jobs with
    | Ok () -> jobs
    | Error e ->
        Printf.eprintf "--jobs %s\n" e;
        exit 2
  in
  Term.(
    const check
    $ Arg.(
        value
        & opt int (Runtime.Pool.recommended_jobs ())
        & info [ "j"; "jobs" ] ~docv:"N" ~doc))

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
     side x side box, r and sigma = r/4 in continuous units; see \
     --density, --rc-mult and --sigma-frac) or domain (a barrier domain \
     with the floor plan --plan, by default open; see --los-blocking and \
     --map). Non-grid spaces run a plain broadcast: there the grid-only \
     flags --protocol/--kernel/--torus/--faults/--loss-p/--outage/--churn \
     get the scenario compiler's diagnostic and --trace/--render a usage \
     error (exit 2 either way), as do the other space's flags."
  in
  Arg.(
    value
    & opt
        (ast_conv Ast.space_of_string Ast.space_to_string)
        Ast.default.Ast.space
    & info [ "space" ] ~docv:"SPACE" ~doc)

let plan_arg =
  let doc = "Domain floor plan: open, wall:<gap> or rooms:<per-side>:<door>." in
  let plan = ast_conv Ast.plan_of_string Ast.plan_to_string in
  Arg.(
    value & opt plan Ast.default.Ast.plan & info [ "plan" ] ~docv:"PLAN" ~doc)

let los_blocking_arg =
  let doc = "Domain walls also block radio (line-of-sight connectivity)." in
  Arg.(value & flag & info [ "los-blocking" ] ~doc)

let map_arg =
  let doc = "Print the domain's floor plan before simulating." in
  Arg.(value & flag & info [ "map" ] ~doc)

let continuum_arg kind name ~docv ~doc default =
  Arg.(value & opt kind default & info [ name ] ~docv ~doc)

let density_arg =
  continuum_arg Arg.(some float) "density" ~docv:"LAMBDA"
    Ast.default.Ast.density
    ~doc:"Continuum agents per unit area: the box side is sqrt(k / $(docv))."

let rc_mult_arg =
  continuum_arg Arg.(some float) "rc-mult" ~docv:"M" Ast.default.Ast.rc_mult
    ~doc:"Continuum radius as a multiple of the box's percolation radius."

let sigma_frac_arg =
  continuum_arg Arg.float "sigma-frac" ~docv:"F" Ast.default.Ast.sigma_frac
    ~doc:"Continuum Brownian step std as a fraction of the radius."

(* Run one compiled cell and print its per-space header and outcome
   lines. The engine parameters, non-grid defaults included, come from
   [Service.Runner.run_cell], the dispatch the service and [--scenario]
   also use. *)
let run_simulate_cell (cell : Ast.cell) ~seed ~trial ~trace ~render ~show_map
    metrics trace_events series =
  let finish_metrics = install_metrics metrics in
  let finish_trace = install_trace trace_events in
  let side = cell.Ast.c_side
  and agents = cell.Ast.c_agents
  and radius = cell.Ast.c_radius in
  let meta, domain =
    match cell.Ast.c_space with
    | Ast.Grid ->
        let cfg = Ast.cell_config cell ~seed ~trial in
        Printf.printf "config: %s\n" (Config.to_string cfg);
        Printf.printf "n = %d nodes, r_c = %.2f, subcritical: %b\n"
          (Config.n cfg)
          (Config.percolation_radius cfg)
          (Config.is_subcritical cfg);
        ( [
            ("space", Obs.Json.String "grid");
            ("config", Obs.Json.String (Config.to_string cfg));
            ("side", Obs.Json.Int side);
            ("nodes", Obs.Json.Int (Config.n cfg));
          ],
          None )
    | Ast.Continuum ->
        let g = Ast.continuum_geometry cell in
        let rc =
          Theory.continuum_critical_radius ~box_side:g.Ast.g_box_side ~agents
        in
        Printf.printf "continuum: box=%.1f k=%d r=%.2f (%.2f r_c) sigma=%.2f\n"
          g.Ast.g_box_side agents g.Ast.g_radius
          (if rc > 0. then g.Ast.g_radius /. rc else 0.)
          g.Ast.g_sigma;
        ( [
            ("space", Obs.Json.String "continuum");
            ("side", Obs.Json.Int (int_of_float (Float.ceil g.Ast.g_box_side)));
            ("agents", Obs.Json.Int agents);
            ("radius", Obs.Json.Float g.Ast.g_radius);
            ("seed", Obs.Json.Int seed);
            ("trial", Obs.Json.Int trial);
          ],
          None )
    | Ast.Domain ->
        let domain = Service.Runner.domain_of_cell cell in
        if show_map then
          print_string (Render.domain_ascii ~max_width:64 domain);
        Printf.printf "domain: %s %dx%d, k=%d r=%d%s\n"
          (Ast.plan_to_string cell.Ast.c_plan)
          side side agents radius
          (if cell.Ast.c_los_blocking then " los-blocking" else "");
        ( [
            ("space", Obs.Json.String "domain");
            ("side", Obs.Json.Int side);
            ("nodes", Obs.Json.Int (Barriers.Domain.free_count domain));
            ("agents", Obs.Json.Int agents);
            ("radius", Obs.Json.Int radius);
            ("seed", Obs.Json.Int seed);
            ("trial", Obs.Json.Int trial);
          ],
          Some domain )
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
  let r =
    or_out_of_memory ~agents (fun () ->
        as_pool_job (fun () ->
            Service.Runner.run_cell ?series:(Option.map snd series) ~on_step
              ?domain cell ~seed ~trial))
  in
  let completed =
    match r.Engine.outcome with
    | Engine.Completed -> true
    | Engine.Timed_out -> false
  in
  (match (cell.Ast.c_space, completed) with
  | Ast.Grid, _ ->
      Printf.printf "%s %d steps\nfinal: informed=%d covered=%d\n"
        (if completed then "completed in" else "TIMED OUT after")
        r.Engine.steps r.Engine.informed r.Engine.covered
  | (Ast.Continuum | Ast.Domain), true ->
      Printf.printf "completed in %d steps\n" r.Engine.steps
  | (Ast.Continuum | Ast.Domain), false ->
      Printf.printf "TIMED OUT after %d steps (informed %d/%d)\n" r.Engine.steps
        r.Engine.informed agents);
  (* the run-level fields [Engine.validate_series] checks the trajectory
     columns against *)
  let protocol = cell.Ast.c_protocol in
  finish_series series
    ~meta:
      (meta
      @ [
          ("population", Obs.Json.Int (Protocol.population protocol ~k:agents));
          ("protocol", Obs.Json.String (Protocol.to_string protocol));
          ("completed", Obs.Json.Bool completed);
        ]);
  finish_trace ();
  finish_metrics ()

(* A scenario file pins every semantic parameter, so a flag that moves
   the flag-built scenario off [Ast.default] (or a run option the
   scenario path does not take) would be dropped silently without this
   warning. *)
let warn_scenario_conflicts flags ~trial ~trace ~render ~show_map =
  let fields t =
    match Ast.canonical_json t with Obs.Json.Assoc kvs -> kvs | _ -> []
  in
  let moved =
    (* fields left at their defaults render identically; the
       space-specific ones render only off their defaults *)
    let defaults = fields Ast.default in
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k defaults with
        | Some d when Obs.Json.(String.equal (to_string v) (to_string d)) ->
            None
        | Some _ | None -> Some k)
      (fields flags)
    @ List.filter_map
        (fun (set, name) -> if set then Some name else None)
        [
          (trial <> 0, "trial");
          (trace > 0, "trace");
          (render > 0, "render");
          (show_map, "map");
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
    faults_file loss_p outage churn plan los_blocking show_map density rc_mult
    sigma_frac =
  require
    [
      (trace >= 0, "--trace must be non-negative");
      (render >= 0, "--render must be non-negative");
    ];
  let series = series_output ~series_file ~trace_out in
  let or_default axis v = Option.value v ~default:(List.hd axis) in
  let flags =
    {
      Ast.default with
      Ast.space;
      sides = [ or_default Ast.default.Ast.sides side ];
      agents = [ agents ];
      radii = [ or_default Ast.default.Ast.radii radius ];
      protocols = [ protocol ];
      kernels = [ kernel ];
      torus;
      seed;
      max_steps;
      faults = load_fault_plan faults_file loss_p outage churn;
      plan;
      los_blocking;
      density;
      rc_mult;
      sigma_frac;
    }
  in
  match scenario with
  | Some path ->
      warn_scenario_conflicts flags ~trial ~trace ~render ~show_map;
      run_simulate_scenario path metrics trace_events series
  | None -> (
      let grid, domain =
        match space with
        | Ast.Grid -> (true, false)
        | Ast.Continuum -> (false, false)
        | Ast.Domain -> (false, true)
      in
      require
        [
          ( grid || trace + render = 0,
            "--trace and --render need --space grid" );
          (domain || not show_map, "--map needs --space domain");
          ( Option.is_none density || Option.is_none side,
            "--density replaces --side: set one of them, not both" );
          ( Option.is_none rc_mult || Option.is_none radius,
            "--rc-mult replaces --radius: set one of them, not both" );
        ];
      List.iter
        (fun cell ->
          run_simulate_cell cell ~seed ~trial ~trace ~render ~show_map metrics
            trace_events series)
        (compile_flags flags).Scenario.Compile.cells)

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
      const run_simulate $ scenario $ space_arg
      $ given_arg (List.hd Ast.default.Ast.sides) side_info
      $ agents_arg $ radius_arg
      $ protocol_arg $ kernel_arg $ seed_arg $ trial_arg $ max_steps_arg
      $ trace $ render $ torus_arg $ trace_out $ metrics_arg
      $ trace_events_arg $ series_arg $ faults_file_arg $ loss_p_arg
      $ outage_arg $ churn_arg $ plan_arg $ los_blocking_arg $ map_arg
      $ density_arg $ rc_mult_arg $ sigma_frac_arg)
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
  require [ (trials > 0, "--trials must be positive") ];
  (* the radius scan starts at 0; radius 1 builds its largest bucket
     table, since the columns only shrink as the radius grows *)
  ignore
    (compile_flags
       { Ast.default with sides = [ side ]; agents = [ agents ]; radii = [ 1 ] });
  let grid = Grid.create ~side () in
  let n = side * side in
  let rng = Prng.of_seed seed in
  let rc = Theory.percolation_radius ~n ~k:agents in
  Printf.printf "n=%d k=%d: r_c (theory) = %.2f, Theorem-2 threshold = %.3f\n"
    n agents rc
    (Theory.subcritical_radius ~n ~k:agents);
  or_out_of_memory ~agents (fun () ->
      let est = Percolation.estimate_rc grid rng ~k:agents ~trials in
      Printf.printf "estimated r_c (giant fraction >= 0.5): %d\n" est;
      List.iter
        (fun mult ->
          let radius = int_of_float (mult *. rc) in
          let frac =
            Percolation.giant_fraction_at grid rng ~k:agents ~radius ~trials
          in
          Printf.printf "r = %.2f rc (%3d): giant fraction %.3f\n" mult radius
            frac)
        [ 0.25; 0.5; 1.0; 1.5; 2.0 ])

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

(* Gate two mobibench result sets. Each file is the concatenated stdout of
   untraced mobibench runs: a "mobibench NAME seed=N ... trace=T" header
   opens a run and the next line starting with '{' is its result; other
   lines are ignored. BENCHMARK.json (read from the current directory)
   names the end-to-end metrics, the direction that is better and the
   bound on a worse median. Every workload OLD has must have NEW runs; a
   workload only NEW has is not compared. *)

module Pjson = Obs.Pjson

type bench_metric = {
  metric : string;
  unit : string;
  lower_better : bool;
  bound : float;
}

type bench_run = {
  workload : string;
  seed : int;
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let bench_input_error file pos msg =
  prerr_endline (Pjson.format ~filename:file pos msg);
  exit 2

(* [owner]'s field [name], read by [read]; a missing or mistyped field
   goes to [fail] (which does not return) at its object or its value. *)
let bench_field ~fail owner read name (j : Pjson.t) =
  match Pjson.member name j with
  | Some v -> ( match read name v with Ok x -> x | Error (pos, msg) -> fail pos msg)
  | None -> fail j.Pjson.pos (Printf.sprintf "%s has no %S" owner name)

let any _ v = Ok v

let read_bench_spec () =
  let file = "BENCHMARK.json" in
  let fail pos msg = bench_input_error file pos msg in
  let doc =
    match Pjson.parse (read_text_file "benchmark spec" file) with
    | Ok doc -> doc
    | Error (pos, e) -> fail pos e
  in
  let need owner read name j = bench_field ~fail owner read name j in
  let better name (v : Pjson.t) =
    Result.bind (Pjson.string name v) (function
      | "lower" -> Ok true
      | "higher" -> Ok false
      | _ -> Error (v.Pjson.pos, name ^ " must be \"lower\" or \"higher\""))
  in
  match need "benchmark spec" Pjson.list "end_to_end" doc with
  | [] -> fail doc.Pjson.pos "no non-empty \"end_to_end\" list"
  | entries ->
      List.map
        (fun e ->
          let need read name = need "end_to_end entry" read name e in
          let metric = need Pjson.string "name" in
          let unit = need Pjson.string "unit" in
          let lower_better = need better "better" in
          let bound = need Pjson.number "bound" in
          { metric; unit; lower_better; bound })
        entries

let read_bench_runs metrics file =
  let fail line col msg = bench_input_error file { Pjson.line; col } msg in
  let header line text =
    match
      Scanf.sscanf_opt text "mobibench %s seed=%d seconds=%_s trace=%d"
        (fun workload seed trace -> (workload, seed, trace))
    with
    | Some (workload, seed, 0) -> (workload, seed, line)
    | Some _ ->
        fail line 1 "traced run; bench-check compares untraced (trace=0) runs"
    | None ->
        fail line 1 "expected \"mobibench NAME seed=N seconds=S trace=0 ...\""
  in
  let result (workload, seed, _) line text =
    (* the line parses alone, so only the column of a position counts *)
    let fail (pos : Pjson.pos) msg = fail line pos.Pjson.col msg in
    let j =
      match Pjson.parse text with Ok j -> j | Error (pos, e) -> fail pos e
    in
    let need owner read name j = bench_field ~fail owner read name j in
    let correct = need "result" Pjson.bool "correct" j in
    let attempted = need "result" Pjson.int "attempted" j in
    let failed = need "result" Pjson.int "failed" j in
    let metrics_obj = need "result" any "metrics" j in
    let values =
      List.map
        (fun m ->
          let entry = need "metrics" any m.metric metrics_obj in
          ( m.metric,
            need m.metric
              (fun _ -> Pjson.number (m.metric ^ " value"))
              "value" entry ))
        metrics
    in
    { workload; seed; correct; attempted; failed; values }
  in
  let lines =
    String.split_on_char '\n' (read_text_file "mobibench output" file)
  in
  let no_result (_, _, line) = fail line 1 "mobibench run has no result line" in
  let rec scan line pending acc = function
    | [] ->
        Option.iter no_result pending;
        List.rev acc
    | text :: rest when String.starts_with ~prefix:"mobibench " text ->
        Option.iter no_result pending;
        scan (line + 1) (Some (header line text)) acc rest
    | text :: rest when String.starts_with ~prefix:"{" text -> (
        match pending with
        | Some h -> scan (line + 1) None (result h line text :: acc) rest
        | None -> fail line 1 "result line with no mobibench header")
    | _ :: rest -> scan (line + 1) pending acc rest
  in
  scan 1 None [] lines

let seed_list runs =
  List.map (fun r -> r.seed) runs
  |> List.sort_uniq Int.compare
  |> List.map string_of_int |> String.concat ", "

(* The i-th OLD run of a seed pairs with the i-th NEW run of that seed. *)
let rec seed_pairs olds news =
  match olds with
  | [] -> []
  | o :: olds -> (
      match List.partition (fun n -> n.seed = o.seed) news with
      | [], _ -> seed_pairs olds news
      | n :: same, others -> (o, n) :: seed_pairs olds (same @ others))

let run_bench_check old_path new_path =
  let metrics = read_bench_spec () in
  let olds = read_bench_runs metrics old_path
  and news = read_bench_runs metrics new_path in
  let failures = ref [] in
  let fail_row what = failures := what :: !failures in
  print_endline
    "| workload (seeds) | metric | pairs | old | new | Δ median | better | gate |";
  print_endline "|---|---|---|---|---|---|---|---|";
  let workloads =
    List.fold_left
      (fun acc r ->
        if List.exists (String.equal r.workload) acc then acc
        else acc @ [ r.workload ])
      [] olds
  in
  List.iter
    (fun w ->
      let mine = List.filter (fun r -> String.equal r.workload w) in
      let olds = mine olds and news = mine news in
      let label = Printf.sprintf "%s (%s)" w (seed_list (olds @ news)) in
      match news with
      | [] ->
          Printf.printf "| %s | all | 0 | %d runs | — | | | NO NEW RUNS |\n"
            label (List.length olds);
          fail_row (w ^ " has no new runs")
      | _ :: _ ->
          let pairs = seed_pairs olds news in
          List.iter
            (fun m ->
              let value r = List.assoc m.metric r.values in
              let quartiles runs =
                let xs = Array.of_list (List.map value runs) in
                let q q = Stats.Summary.quantile xs ~q in
                (q 0.25, q 0.5, q 0.75)
              in
              let o25, o50, o75 = quartiles olds
              and n25, n50, n75 = quartiles news in
              let better o n = if m.lower_better then n < o else n > o in
              let worse =
                if m.lower_better then n50 > o50 *. (1. +. m.bound)
                else n50 < o50 *. (1. -. m.bound)
              in
              let gate =
                if not worse then "ok"
                else if n75 < o25 || o75 < n25 then "REGRESSION"
                else "UNRESOLVED"
              in
              if worse then fail_row (Printf.sprintf "%s %s %s" w m.metric gate);
              let cell q25 q50 q75 =
                Printf.sprintf "%.4g %s [%.4g, %.4g]" q50 m.unit q25 q75
              in
              Printf.printf
                "| %s | %s | %d | %s | %s | %+.1f %% | %d/%d | %s |\n" label
                m.metric (List.length pairs) (cell o25 o50 o75)
                (cell n25 n50 n75)
                (100. *. (n50 -. o50) /. o50)
                (List.length
                   (List.filter (fun (o, n) -> better (value o) (value n)) pairs))
                (List.length pairs) gate)
            metrics;
          let sum f runs = List.fold_left (fun acc r -> acc + f r) 0 runs in
          let share runs =
            let failed = sum (fun r -> r.failed) runs in
            if failed = 0 then 0.
            else
              float_of_int failed
              /. float_of_int (sum (fun r -> r.attempted) runs)
          in
          let gate =
            match List.filter (fun r -> not r.correct) news with
            | _ :: _ as incorrect ->
                Printf.sprintf "INCORRECT (seed %s)" (seed_list incorrect)
            | [] -> if share news > share olds then "MORE FAILURES" else "ok"
          in
          if not (String.equal gate "ok") then fail_row (w ^ " " ^ gate);
          let count runs =
            Printf.sprintf "%d/%d" (sum (fun r -> r.failed) runs)
              (sum (fun r -> r.attempted) runs)
          in
          Printf.printf "| %s | failed/attempted | %d | %s | %s | | | %s |\n"
            label (List.length pairs) (count olds) (count news) gate)
    workloads;
  match List.rev !failures with
  | [] -> print_endline "bench-check: OK"
  | fs ->
      Printf.printf "bench-check: FAIL: %s\n" (String.concat "; " fs);
      exit 1

let bench_check_cmd =
  let runs n docv which =
    let doc =
      Printf.sprintf
        "The %s mobibench runs: the concatenated stdout of one or more \
         untraced 'sh bench/suite/run.sh' runs."
        which
    in
    Arg.(required & pos n (some string) None & info [] ~docv ~doc)
  in
  Cmd.v
    (Cmd.info "bench-check"
       ~doc:
         "Compare two sets of mobibench runs: per workload and end-to-end \
          metric, the median and quartiles on each side. Exits 1 when a \
          median is worse than BENCHMARK.json's bound (REGRESSION when the \
          quartile intervals are disjoint, UNRESOLVED when they overlap), \
          when a new run is not correct or when the share of failed \
          operations rises; exits 2 on malformed input. Reads \
          BENCHMARK.json from the current directory.")
    Term.(
      const run_bench_check $ runs 0 "OLD" "baseline" $ runs 1 "NEW" "candidate")

(* --- theory ----------------------------------------------------------------- *)

let run_theory side agents =
  ignore
    (compile_flags { Ast.default with sides = [ side ]; agents = [ agents ] });
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

(* One response line's verdict. *)
type line_status = Failed | Header of int | Result | Quiet

(* An explicit "ok":false is a daemon-reported failure; a submit
   header ("ok":true with "runs") announces its result lines; a JSON
   line without "ok" or "progress" is a result line. Anything else
   (non-JSON --prom text, health lines, progress lines) says nothing:
   the daemon reports failures only through "ok":false lines. *)
let line_status line =
  match Obs.Json.parse line with
  | Error _ -> Quiet
  | Ok j -> (
      match (Obs.Json.member "ok" j, Obs.Json.member "runs" j) with
      | Some (Obs.Json.Bool false), _ -> Failed
      | Some (Obs.Json.Bool true), Some (Obs.Json.Int runs) -> Header runs
      | Some _, _ -> Quiet
      | None, _ ->
          if Option.is_some (Obs.Json.member "progress" j) then Quiet
          else Result)

(* Exit 1 on an "ok":false line anywhere in the response. A submit
   response must also carry every result line its header announced:
   one that stops short (the daemon died mid-sweep) fails too. *)
let check_response ~submit lines =
  let statuses = List.map line_status lines in
  if List.exists (function Failed -> true | _ -> false) statuses then exit 1;
  if submit then
    match statuses with
    | Header runs :: rest ->
        let got =
          List.length (List.filter (function Result -> true | _ -> false) rest)
        in
        if got <> runs then begin
          Printf.eprintf "response ended after %d of %d result lines\n" got
            runs;
          exit 1
        end
    | _ ->
        prerr_endline "response ended before its header";
        exit 1

(* The whole response is echoed to stdout either way (NDJSON in,
   NDJSON out). *)
let print_response ?(submit = false) response =
  print_string response;
  check_response ~submit
    (List.filter
       (fun l -> not (String.equal l ""))
       (String.split_on_char '\n' response))

(* Streamed variant: print each line the moment it arrives, then judge
   the lines. *)
let stream_response ?(submit = false) socket_path req =
  let lines = ref [] in
  (match
     Service.Daemon.Client.request_stream ~socket_path
       ~on_line:(fun line ->
         lines := line :: !lines;
         print_string line;
         flush stdout)
       (Obs.Json.to_string req)
   with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1);
  check_response ~submit (List.rev !lines)

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
  if progress then stream_response ~submit:true socket_path req
  else print_response ~submit:true (client_request socket_path req)

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
       validate_metrics_cmd;
       bench_check_cmd; scenario_cmd; serve_cmd; submit_cmd; serve_health_cmd;
       serve_metrics_cmd; serve_watch_cmd; serve_stop_cmd ] in
  exit (Cmd.eval group)
