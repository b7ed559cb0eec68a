module Json = Obs.Json
module Ast = Scenario.Ast
module Compile = Scenario.Compile

module Engine = Mobile_network.Engine

let domain_of_cell (c : Ast.cell) =
  let grid = Grid.create ~side:c.Ast.c_side () in
  match c.Ast.c_plan with
  | Ast.Open -> Barriers.Domain.unobstructed grid
  | Ast.Wall { gap } -> Barriers.Domain.central_wall grid ~gap
  | Ast.Rooms { per_side; door } ->
      Barriers.Domain.rooms grid ~rooms_per_side:per_side ~door

module Domain_engine = Engine.Make (Barriers.Domain_space)
module Continuum_engine = Engine.Make (Continuum.Space)

let run_cell ?series ?on_step ?domain (c : Ast.cell) ~seed ~trial =
  let spec max_steps =
    Engine.default_spec ~agents:c.Ast.c_agents ~seed ~trial
      ~max_steps:(Option.value c.Ast.c_max_steps ~default:max_steps)
  in
  match c.Ast.c_space with
  | Ast.Grid ->
      Mobile_network.Simulation.run_config ?on_step ?series
        (Ast.cell_config c ~seed ~trial)
  | Ast.Continuum ->
      let g = Ast.continuum_geometry c in
      Continuum_engine.run
        (Continuum_engine.create ?series
           ~space:
             (Continuum.Space.create ~box_side:g.Ast.g_box_side
                ~radius:g.Ast.g_radius ~sigma:g.Ast.g_sigma
                ~agents:c.Ast.c_agents)
           (spec 1_000_000))
  | Ast.Domain ->
      let side = c.Ast.c_side in
      Domain_engine.run
        (Domain_engine.create ?series
           ~space:
             (Barriers.Domain_space.create
                (match domain with Some d -> d | None -> domain_of_cell c)
                ~radius:c.Ast.c_radius ~los_blocking:c.Ast.c_los_blocking)
           (spec (100 * side * side)))

let run_payload ?series c ~seed ~trial =
  let r = run_cell ?series c ~seed ~trial in
  Json.to_string
    (Json.Assoc
       [
         ( "outcome",
           Json.String
             (match r.Engine.outcome with
             | Engine.Completed -> "completed"
             | Engine.Timed_out -> "timed-out") );
         ("steps", Json.Int r.Engine.steps);
         ("informed", Json.Int r.Engine.informed);
         ("covered", Json.Int r.Engine.covered);
       ])

(* One run of the matrix: cell index, its hash, and the trial. *)
type task = {
  t_index : int;  (** position in the matrix, for progress accounting *)
  t_cell_index : int;
  t_cell : Ast.cell;
  t_hash : string;
  t_trial : int;
}

let matrix (compiled : Compile.compiled) =
  let trials = compiled.Compile.trials in
  List.concat
    (List.mapi
       (fun ci cell ->
         let h = Ast.cell_hash cell in
         List.init trials (fun trial ->
             {
               t_index = (ci * trials) + trial;
               t_cell_index = ci;
               t_cell = cell;
               t_hash = h;
               t_trial = trial;
             }))
       compiled.Compile.cells)

let line_of ~seed t payload =
  Printf.sprintf
    "{\"cell\":%d,\"hash\":%s,\"seed\":%d,\"trial\":%d,\"result\":%s}\n"
    t.t_cell_index
    (Json.to_string (Json.String t.t_hash))
    seed t.t_trial payload

(* Per-cell series artifacts: one extra trial-0 run per cell with a
   recorder attached, written to <dir>/<cell hash>.series.json. Runs
   after the sweep, sequentially — the recorder observes a fresh
   deterministic replay, so the cached payloads and the body bytes are
   untouched. *)
let write_cell_series ~dir ~seed compiled =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iter
    (fun cell ->
      let sr =
        Obs.Series.create ~columns:Mobile_network.Engine.series_columns ()
      in
      let (_ : string) = run_payload ~series:sr cell ~seed ~trial:0 in
      let hash = Ast.cell_hash cell in
      let meta =
        [
          ("cell", Ast.cell_json cell);
          ("hash", Json.String hash);
          ("seed", Json.Int seed);
          ("trial", Json.Int 0);
        ]
      in
      Store.write_atomic
        (Filename.concat dir (hash ^ ".series.json"))
        (Obs.Series.export_string ~meta sr))
    compiled.Compile.cells

let run ?(metrics = Obs.Sink.null) ?on_progress ?on_line ?series_dir ~pool
    ~store compiled =
  let seed = compiled.Compile.seed in
  let computed =
    Option.map
      (fun r -> Obs.Registry.counter r "service.cells.computed")
      (Obs.Sink.registry metrics)
  in
  let tasks = matrix compiled in
  let total = List.length tasks in
  let progress done_ =
    match on_progress with
    | Some f -> f ~done_ ~total
    | None -> ()
  in
  (* Pass 1: one cache probe per run (so hits + misses = total). *)
  let payloads = Array.make total None in
  List.iter
    (fun t ->
      payloads.(t.t_index) <-
        Store.get store ~hash:t.t_hash ~seed ~trial:t.t_trial)
    tasks;
  (* Streaming: deliver each line once every earlier line has been
     delivered and its payload persisted — the contiguous-prefix
     frontier over matrix order. Hits fill the prefix immediately;
     pool results land in submission (= matrix) order, so the frontier
     only ever waits for the next line, never reorders. *)
  let tasks_arr = Array.of_list tasks in
  let emit_ready =
    match on_line with
    | None -> fun () -> ()
    | Some f ->
        let next = ref 0 in
        fun () ->
          while
            !next < total && Option.is_some payloads.(!next)
          do
            let t = tasks_arr.(!next) in
            (match payloads.(!next) with
            | Some payload -> f (line_of ~seed t payload)
            | None -> assert false);
            incr next
          done
  in
  emit_ready ();
  let missing =
    List.filter (fun t -> Option.is_none payloads.(t.t_index)) tasks
  in
  let done_count = ref (total - List.length missing) in
  if !done_count > 0 then progress !done_count;
  (* Pass 2: compute the misses through the pool. Each result is
     persisted from [on_result] — which fires in submission order, on
     this domain, as soon as the ordered prefix completes — so a daemon
     killed mid-sweep has already cached every finished prefix run and
     checkpoint replay only recomputes the tail. *)
  let missing_arr = Array.of_list missing in
  let (_ : string list) =
    Runtime.Pool.map pool
      ~f:(fun _i t -> run_payload t.t_cell ~seed ~trial:t.t_trial)
      ~on_result:(fun i payload ->
        let t = missing_arr.(i) in
        Option.iter Obs.Metric.Counter.incr computed;
        Store.put store ~hash:t.t_hash ~seed ~trial:t.t_trial payload;
        payloads.(t.t_index) <- Some payload;
        emit_ready ();
        incr done_count;
        progress !done_count)
      missing
  in
  (match series_dir with
  | Some dir -> write_cell_series ~dir ~seed compiled
  | None -> ());
  (* Pass 3: assemble every line from the cached bytes. *)
  let buf = Buffer.create (256 * total) in
  List.iter
    (fun t ->
      let payload =
        match payloads.(t.t_index) with Some b -> b | None -> assert false
      in
      Buffer.add_string buf (line_of ~seed t payload))
    tasks;
  Buffer.contents buf
