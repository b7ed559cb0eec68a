(* The in-process engine workloads, and the engine profile (phase
   attribution, allocation, GC, tracing overhead) that every workload's
   traced run reports. Only Simulation's public API is timed: [create]
   is setup, [run] or [step] is steady state. *)

module Config = Mobile_network.Config
module Protocol = Mobile_network.Protocol
module Simulation = Mobile_network.Simulation

type spec = {
  side : int;
  agents : int;
  radius : int;
  protocol : Protocol.t;
  window : int option;
      (** [Some w]: each trial is a [w]-step window that cannot complete;
          [None]: each trial runs to completion. Either way one
          operation is one step of the whole population: a trial to
          completion reports its mean step. *)
  pin_ops : int;  (** trials (window mode: steps) the pinned digest covers *)
}

let config spec ~seed ~trial =
  Config.make ~side:spec.side ~agents:spec.agents ~radius:spec.radius
    ~protocol:spec.protocol ?max_steps:spec.window ~seed ~trial ()

(* At radius 0 the engine repairs components incrementally; every
   [oracle_every]-th trial (window mode: the first [oracle_steps] steps
   of trial 0) is re-run with [~full_rebuild:true] and must match. *)
let oracle_every = 50
let oracle_steps = 10

type acc = {
  setup_s : Sample.t;
  op_ms : Ctx.ops;
  agent_step_ns : Sample.t;  (** one per trial, or per step in window mode *)
  setup_words : Sample.t;  (** minor words per agent allocated by [create] *)
  mutable steps : int;
  mutable steady_ns : int;
  mutable steady_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable ops : int;
  mutable trials : int;
  pinned : Buffer.t;  (** one line per operation the digest covers *)
  mutable first_states : string list;
      (** window mode: trial 0's first {!oracle_steps} states, newest first *)
}

let new_acc () =
  {
    setup_s = Sample.create ();
    op_ms = Ctx.ops ();
    agent_step_ns = Sample.create ();
    setup_words = Sample.create ();
    steps = 0;
    steady_ns = 0;
    steady_words = 0.;
    minor_gcs = 0;
    major_gcs = 0;
    ops = 0;
    trials = 0;
    pinned = Buffer.create 4096;
    first_states = [];
  }

let report_line (r : Simulation.report) =
  Printf.sprintf "%s %d %d %d"
    (match r.Simulation.outcome with
    | Simulation.Completed -> "completed"
    | Simulation.Timed_out -> "timed_out")
    r.Simulation.steps r.Simulation.informed r.Simulation.covered

let state_line sim =
  Printf.sprintf "%d %d %d %d" (Simulation.time sim)
    (Simulation.informed_count sim)
    (Simulation.max_island sim)
    (Simulation.frontier_x sim)

let ms_of_ns ns = float_of_int ns /. 1e6

(* Trial [i = acc.trials], on [config i], into [acc]; a window ends early
   once [more acc.ops] fails. With [check], its outcome is checked and
   the r = 0 oracle runs. *)
let trial (ctx : Ctx.t) ?(metrics = Obs.Sink.null) ~check ~config ~window
    ~pin_ops ~more acc =
  let i = acc.trials in
  let cfg : Config.t = config i in
  let k = cfg.Config.agents in
  (* one population alive at a time, so the peak RSS is one window's *)
  if Option.is_some window then Gc.compact ();
  let w0 = Gc.minor_words () in
  let t0 = Ctx.now () in
  let sim = Simulation.create ~metrics cfg in
  let tc = Ctx.now () in
  let w1 = Gc.minor_words () in
  Sample.add acc.setup_s (Obs.Clock.ns_to_s (tc - t0));
  Sample.add acc.setup_words ((w1 -. w0) /. float_of_int k);
  Ctx.span ctx "setup" ~t0 ~t1:tc ~v:i;
  let g1 = Gc.quick_stat () in
  (match window with
  | None ->
      let wa = Gc.minor_words () in
      let t1 = Ctx.now () in
      let r = Simulation.run sim in
      let t2 = Ctx.now () in
      let wb = Gc.minor_words () in
      let steady = t2 - t1 in
      acc.steady_words <- acc.steady_words +. (wb -. wa);
      acc.steady_ns <- acc.steady_ns + steady;
      acc.steps <- acc.steps + r.Simulation.steps;
      if r.Simulation.steps > 0 then begin
        Ctx.add_op ctx acc.op_ms (ms_of_ns steady /. float_of_int r.Simulation.steps);
        Sample.add acc.agent_step_ns
          (float_of_int steady /. float_of_int (r.Simulation.steps * k))
      end;
      Ctx.span ctx "steady" ~t0:t1 ~t1:t2 ~v:i;
      Ctx.span ctx "trial" ~t0 ~t1:t2 ~v:i;
      if acc.ops < pin_ops then
        Buffer.add_string acc.pinned
          (Printf.sprintf "%d %s\n" i (report_line r));
      acc.ops <- acc.ops + 1;
      if check then begin
        Ctx.check ctx
          (r.Simulation.outcome = Simulation.Completed
          && r.Simulation.informed = k)
          "trial %d: %s does not inform all %d agents" i (report_line r) k;
        if cfg.Config.radius = 0 && i mod oracle_every = 0 then begin
          let full = Simulation.run_config ~full_rebuild:true cfg in
          Ctx.check ctx
            (String.equal (report_line full) (report_line r))
            "trial %d: incremental %s <> full rebuild %s" i (report_line r)
            (report_line full)
        end
      end
  | Some w ->
      let s = ref 0 and first = Ctx.now () in
      while !s < w && more acc.ops do
        let wa = Gc.minor_words () in
        let ta = Ctx.now () in
        Simulation.step sim;
        let tb = Ctx.now () in
        let wb = Gc.minor_words () in
        acc.steady_words <- acc.steady_words +. (wb -. wa);
        acc.steady_ns <- acc.steady_ns + (tb - ta);
        acc.steps <- acc.steps + 1;
        Ctx.add_op ctx acc.op_ms (ms_of_ns (tb - ta));
        Sample.add acc.agent_step_ns
          (float_of_int (tb - ta) /. float_of_int k);
        let line = Printf.sprintf "%d %s\n" i (state_line sim) in
        if acc.ops < pin_ops then Buffer.add_string acc.pinned line;
        if i = 0 && !s < oracle_steps then
          acc.first_states <- line :: acc.first_states;
        acc.ops <- acc.ops + 1;
        incr s
      done;
      Ctx.span ctx "steady" ~t0:first ~t1:(Ctx.now ()) ~v:i;
      Ctx.span ctx "trial" ~t0 ~t1:(Ctx.now ()) ~v:i);
  let g2 = Gc.quick_stat () in
  acc.minor_gcs <- acc.minor_gcs + g2.Gc.minor_collections - g1.Gc.minor_collections;
  acc.major_gcs <- acc.major_gcs + g2.Gc.major_collections - g1.Gc.major_collections;
  acc.trials <- i + 1

(* Trials while [more acc.ops]. *)
let loop ctx ~config ~window ~pin_ops ~more =
  let acc = new_acc () in
  while more acc.ops do
    trial ctx ~check:true ~config ~window ~pin_ops ~more acc
  done;
  acc

(* Window mode's oracle, run after the measured loop so that no two
   populations are alive at once: trial 0's first steps again, with a
   full component rebuild every step. *)
let window_oracle (ctx : Ctx.t) acc (cfg : Config.t) =
  if cfg.Config.radius = 0 && acc.first_states <> [] then begin
    Gc.compact ();
    let full = Simulation.create ~full_rebuild:true cfg in
    let expected = ref [] in
    List.iter
      (fun _ ->
        Simulation.step full;
        expected := Printf.sprintf "0 %s\n" (state_line full) :: !expected)
      acc.first_states;
    Ctx.check ctx
      (List.equal String.equal !expected acc.first_states)
      "trial 0: incremental steps differ from a full rebuild"
  end

let per_step acc x = if acc.steps = 0 then 0. else x /. float_of_int acc.steps

let phase_names = [ "move"; "index"; "components"; "exchange"; "record" ]

(* The engine profile: each trial runs twice in a row, untraced (cost,
   allocation, GC) and then with a recording metrics sink and the bench
   tracer (per-phase attribution). Pairing the two passes trial by trial
   keeps the machine's drift out of what observing costs. *)
let profile (ctx : Ctx.t) ~config ~window ~pin_ops ~seconds ~min_ops =
  let reg = Obs.Registry.create () in
  let metrics = Obs.Sink.of_registry reg in
  let plain = new_acc () and traced = new_acc () in
  let more = Ctx.until ctx ~start:(Ctx.now ()) ~seconds ~min_ops in
  while more plain.ops do
    Ctx.untraced ctx (fun () -> trial ctx ~check:true ~config ~window ~pin_ops ~more plain);
    trial ctx ~metrics ~check:false ~config ~window ~pin_ops:0
      ~more:(fun ops -> ops < plain.ops)
      traced
  done;
  let phase name =
    let h = Obs.Registry.histogram reg ("sim.phase." ^ name ^ "_ns") in
    per_step traced (float_of_int (Obs.Metric.Histogram.sum_ns h))
  in
  let phases = List.map (fun p -> ("core.phase." ^ p ^ "_ns_per_step", phase p)) phase_names in
  let step_ns acc = per_step acc (float_of_int acc.steady_ns) in
  let p50 s = Sample.quantile s 0.5 in
  let layers =
    phases
    @ [
        ( "core.phase_coverage",
          List.fold_left (fun a (_, v) -> a +. v) 0. phases /. step_ns traced );
        ("core.agent_step_ns", p50 plain.agent_step_ns);
        ("core.words_per_step", per_step plain plain.steady_words);
        ("core.setup_words_per_agent", p50 plain.setup_words);
        ( "gc.minor_per_kstep",
          1000. *. per_step plain (float_of_int plain.minor_gcs) );
        ( "gc.major_per_kstep",
          1000. *. per_step plain (float_of_int plain.major_gcs) );
        ( "obs.overhead_frac",
          (p50 traced.agent_step_ns /. p50 plain.agent_step_ns) -. 1. );
      ]
  in
  (plain, layers)

let digest acc = Digest.to_hex (Digest.string (Buffer.contents acc.pinned))

(* This workload's cell as a scenario file, for the compile probe. *)
let scenario spec ~seed =
  Printf.sprintf {|{"side": %d, "agents": %d, "radius": %d, "protocol": "%s", "trials": 1, "seed": %d}|}
    spec.side spec.agents spec.radius
    (Scenario.Ast.protocol_to_string spec.protocol)
    seed

let run spec (ctx : Ctx.t) =
  let seed = ctx.Ctx.seed in
  let config trial = config spec ~seed ~trial in
  let min_ops = match ctx.Ctx.scale with Ctx.Full -> spec.pin_ops | Ctx.Smoke -> 1 in
  let measured (acc : acc) ~heap_mib ~layers =
    window_oracle ctx acc (config 0);
    { Ctx.setup_s = acc.setup_s; op_ms = acc.op_ms; heap_mib; layers; digest = digest acc; pin_seed = seed }
  in
  if not ctx.Ctx.traced then begin
    let start = Ctx.now () in
    let acc =
      loop ctx ~config ~window:spec.window ~pin_ops:spec.pin_ops
        ~more:(Ctx.until ctx ~start ~seconds:ctx.Ctx.seconds ~min_ops)
    in
    measured acc ~heap_mib:(Proc.mib_of_kib (Proc.self_maxrss_kib ())) ~layers:[]
  end
  else begin
    let plain, engine =
      profile ctx ~config ~window:spec.window ~pin_ops:spec.pin_ops
        ~seconds:(ctx.Ctx.seconds /. 2.) ~min_ops
    in
    Gc.compact ();
    let probes = Probes.run ctx (config 0) ~scenario:(scenario spec ~seed) in
    measured plain ~heap_mib:nan ~layers:(engine @ probes)
  end
