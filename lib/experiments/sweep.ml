type measured = {
  times : float array;
  timeouts : int;
}

(* Trials fan out over the ambient domain pool (Runtime.Pool.ambient,
   jobs = 1 unless a front end raised it with --jobs). Each trial draws
   all randomness from its own (seed, trial) PRNG stream, so the pooled
   values are identical to the sequential ones; at jobs = 1 the pool
   runs the same in-order loop this code always had. *)

(* Per-trial aggregation into the ambient sink: one wall-clock sample
   and one steps sample per trial, plus timeout/trial counters. The
   instruments are resolved once per sweep call; with the null sink the
   trial body is exactly the uninstrumented code. *)
type trial_obs = {
  obs_trial_ns : Obs.Metric.Histogram.t;
  obs_steps : Obs.Metric.Histogram.t;
  obs_trials : Obs.Metric.Counter.t;
  obs_timeouts : Obs.Metric.Counter.t;
}

let trial_obs () =
  match Obs.Sink.registry (Obs.Sink.ambient ()) with
  | None -> None
  | Some reg ->
      Some
        {
          obs_trial_ns = Obs.Registry.histogram reg "sweep.trial_ns";
          obs_steps =
            (* completion times in steps, not ns: decimal buckets *)
            Obs.Registry.histogram reg "sweep.trial_steps"
              ~bounds:
                [| 10; 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000 |];
          obs_trials = Obs.Registry.counter reg "sweep.trials";
          obs_timeouts = Obs.Registry.counter reg "sweep.timeouts";
        }

let samples_named name ~trials ~run =
  if trials <= 0 then invalid_arg (name ^ ": trials <= 0");
  let obs = trial_obs () in
  let out =
    Runtime.Pool.init (Runtime.Pool.ambient ()) ~n:trials ~f:(fun trial ->
        let t0 = match obs with None -> 0 | Some _ -> Obs.Clock.now_ns () in
        let report = run ~trial in
        let steps = report.Mobile_network.Engine.steps in
        let timed_out =
          match report.Mobile_network.Engine.outcome with
          | Mobile_network.Engine.Completed -> false
          | Mobile_network.Engine.Timed_out -> true
        in
        (match obs with
        | None -> ()
        | Some o ->
            Obs.Metric.Histogram.observe o.obs_trial_ns
              (Obs.Clock.now_ns () - t0);
            Obs.Metric.Histogram.observe o.obs_steps steps;
            Obs.Metric.Counter.incr o.obs_trials;
            if timed_out then Obs.Metric.Counter.incr o.obs_timeouts);
        (float_of_int steps, timed_out))
  in
  {
    times = Array.map fst out;
    timeouts =
      Array.fold_left (fun n (_, timed_out) -> if timed_out then n + 1 else n)
        0 out;
  }

let samples ~trials ~run = samples_named "Sweep.samples" ~trials ~run

(* One series file per sweep point when [--series-dir] installed an
   ambient destination: trial 0 of each point runs with a recorder and
   its curve lands in [<dir>/<sanitized config>.series.json]. Pure
   observation: the recorder cannot perturb results, the file name is a
   deterministic function of the config, and only trial 0 records — so
   experiment output stays byte-identical at any --jobs, with or
   without a series directory. *)
let sanitize_component s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' -> c
      | _ -> '_')
    s

let write_series dir sr config =
  let label = Mobile_network.Config.to_string config in
  let file =
    Filename.concat dir (sanitize_component label ^ ".series.json")
  in
  let oc = open_out_bin file in
  output_string oc
    (Obs.Series.export_string
       ~meta:[ ("config", Obs.Json.String label) ]
       sr);
  close_out oc

let completion_times ~trials ~cfg =
  let series_dir = Obs.Series.ambient_dir () in
  samples_named "Sweep.completion_times" ~trials ~run:(fun ~trial ->
      let config = cfg ~trial in
      let series =
        match series_dir with
        | Some _ when trial = 0 ->
            Some
              (Obs.Series.create
                 ~columns:Mobile_network.Engine.series_columns ())
        | Some _ | None -> None
      in
      let report = Mobile_network.Simulation.run_config ?series config in
      (match (series_dir, series) with
      | Some dir, Some sr -> write_series dir sr config
      | (Some _ | None), _ -> ());
      report)

let trajectory cfg get =
  let module Simulation = Mobile_network.Simulation in
  let sim = Simulation.create cfg in
  let values = Mobile_network.Intbuf.create () in
  let record sim = Mobile_network.Intbuf.push values (get sim) in
  record sim;
  let (_ : Simulation.report) = Simulation.run ~on_step:record sim in
  Mobile_network.Intbuf.to_array values

let probability ~trials ~f =
  if trials <= 0 then invalid_arg "Sweep.probability: trials <= 0";
  let obs = trial_obs () in
  let hits =
    Runtime.Pool.init (Runtime.Pool.ambient ()) ~n:trials ~f:(fun trial ->
        let t0 = match obs with None -> 0 | Some _ -> Obs.Clock.now_ns () in
        let hit = f ~trial in
        (match obs with
        | None -> ()
        | Some o ->
            Obs.Metric.Histogram.observe o.obs_trial_ns
              (Obs.Clock.now_ns () - t0);
            Obs.Metric.Counter.incr o.obs_trials);
        hit)
    |> Array.fold_left (fun n hit -> if hit then n + 1 else n) 0
  in
  float_of_int hits /. float_of_int trials

let doublings ~from ~count =
  if from <= 0 then invalid_arg "Sweep.doublings: from <= 0";
  if count < 0 then invalid_arg "Sweep.doublings: negative count";
  List.init count (fun i -> from lsl i)

let geometric ~from ~factor ~count =
  if not (from > 0.) then invalid_arg "Sweep.geometric: from <= 0";
  if not (factor > 1.) then invalid_arg "Sweep.geometric: factor <= 1";
  if count < 0 then invalid_arg "Sweep.geometric: negative count";
  List.init count (fun i -> from *. (factor ** float_of_int i))

let median sample = Stats.Summary.quantile sample ~q:0.5
