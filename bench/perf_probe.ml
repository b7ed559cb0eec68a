(* perf_probe — focused wall-clock + allocation probe for the engine hot
   paths that the Space/Exchange/Engine refactor touches. Unlike the
   Bechamel harness this runs in seconds and reports per-step minor-heap
   allocation, which is the quantity the exchange-scratch and
   continuum-index work is meant to drive down. Used to record the
   before/after numbers in EXPERIMENTS.md.

   `--json FILE` additionally writes the numbers as a machine-readable
   perf trajectory: {"schema", "probes": {label -> {ns_per_step,
   minor_words_per_step, steps}}}. `make bench-json` pins that file as
   BENCH_PR<N>.json at the repo root, and `mobisim bench-check OLD NEW`
   diffs two of them. *)

module Config = Mobile_network.Config
module Protocol = Mobile_network.Protocol
module Simulation = Mobile_network.Simulation

let json_file =
  let rec scan = function
    | "--json" :: v :: _ -> Some v
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

(* (label, steps, ns/step, minor words/step), in run order *)
let results : (string * int * float * float) list ref = ref []

let time_alloc ~label ~reps f =
  (* warmup run: fill caches, trigger lazy allocations *)
  ignore (f ());
  let minor0 = Gc.minor_words () in
  let t0 = Obs.Clock.now_ns () in
  let steps = ref 0 in
  for _ = 1 to reps do
    steps := !steps + f ()
  done;
  let dt = Obs.Clock.now_ns () - t0 in
  let minor = Gc.minor_words () -. minor0 in
  let ns_per_step = float_of_int dt /. float_of_int (max 1 !steps) in
  let words_per_step = minor /. float_of_int (max 1 !steps) in
  results := (label, !steps, ns_per_step, words_per_step) :: !results;
  Printf.printf "%-34s %8d steps  %8.0f ns/step  %10.1f words/step\n%!" label
    !steps ns_per_step words_per_step

let write_json path =
  let probes =
    List.rev_map
      (fun (label, steps, ns, words) ->
        ( label,
          Obs.Json.Assoc
            [
              ("ns_per_step", Obs.Json.Float ns);
              ("minor_words_per_step", Obs.Json.Float words);
              ("steps", Obs.Json.Int steps);
            ] ))
      !results
  in
  let doc =
    Obs.Json.Assoc
      [
        ("schema", Obs.Json.String "mobisim-bench/1");
        ("probes", Obs.Json.Assoc probes);
      ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d probes)\n%!" path (List.length probes)

let () =
  Printf.printf "%-34s %14s %15s %20s\n" "probe" "total" "time" "minor alloc";
  (* core broadcast: the bench E1-quick proxy (flood over components) *)
  time_alloc ~label:"core broadcast side=64 k=64 r=0" ~reps:20 (fun () ->
      (Simulation.run_config
         (Config.make ~side:64 ~agents:64 ~radius:0 ~seed:7 ~max_steps:2000 ()))
        .Simulation.steps);
  (* same run with a recording tracer attached: the timeline's overhead
     budget (the EXPERIMENTS.md off/on pair). One shared tracer, sized so
     all reps fit without overflow (a full ring stops paying the store
     path, which would flatter the number); its ring is one large array,
     allocated directly on the major heap, so words/step stays
     comparable. *)
  let traced = Obs.Tracer.create ~capacity:(1 lsl 19) () in
  Obs.Tracer.set_ambient traced;
  time_alloc ~label:"core broadcast side=64 k=64 traced" ~reps:20 (fun () ->
      (Simulation.run_config
         (Config.make ~side:64 ~agents:64 ~radius:0 ~seed:7 ~max_steps:2000 ()))
        .Simulation.steps);
  Obs.Tracer.set_ambient Obs.Tracer.null;
  assert (Obs.Tracer.dropped traced = 0);
  (* same run with a per-step series recorder attached: the telemetry
     overhead budget. A fresh recorder per rep (as --series creates
     one per run); its Bigarray rows live off the minor heap, so
     words/step counts only the per-step staging cost plus the
     Gc.quick_stat reads on sampled steps. *)
  time_alloc ~label:"core broadcast side=64 k=64 series" ~reps:20 (fun () ->
      let series =
        Obs.Series.create ~columns:Mobile_network.Engine.series_columns ()
      in
      (Simulation.run_config ~series
         (Config.make ~side:64 ~agents:64 ~radius:0 ~seed:7 ~max_steps:2000 ()))
        .Simulation.steps);
  time_alloc ~label:"core broadcast side=64 k=64 r=8" ~reps:20 (fun () ->
      (Simulation.run_config
         (Config.make ~side:64 ~agents:64 ~radius:8 ~seed:7 ~max_steps:2000 ()))
        .Simulation.steps);
  (* large-k data-plane probes: SoA positions + Morton index +
     per-step component rebuild at population scale. Broadcast cannot finish
     in 100 steps at these sizes; the probe measures steady-state
     step cost, not completion. *)
  time_alloc ~label:"core broadcast side=1024 k=65536 r=0" ~reps:3 (fun () ->
      (Simulation.run_config
         (Config.make ~side:1024 ~agents:65536 ~radius:0 ~seed:7
            ~max_steps:100 ()))
        .Simulation.steps);
  time_alloc ~label:"core broadcast side=512 k=100000 r=0" ~reps:3 (fun () ->
      (Simulation.run_config
         (Config.make ~side:512 ~agents:100000 ~radius:0 ~seed:7
            ~max_steps:100 ()))
        .Simulation.steps);
  (* gossip flood: per-step shared-set table churn *)
  time_alloc ~label:"gossip flood side=32 k=64 r=2" ~reps:10 (fun () ->
      (Simulation.run_config
         (Config.make ~side:32 ~agents:64 ~radius:2
            ~protocol:Protocol.Gossip ~seed:7 ~max_steps:500 ()))
        .Simulation.steps);
  (* gossip single-hop: per-step snapshot table + exchange list churn *)
  time_alloc ~label:"gossip single-hop side=32 k=64 r=2" ~reps:10 (fun () ->
      (Simulation.run_config
         (Config.make ~side:32 ~agents:64 ~radius:2
            ~protocol:Protocol.Gossip ~exchange:Config.Single_hop ~seed:7
            ~max_steps:500 ()))
        .Simulation.steps);
  (* continuum: per-step bucket-table rebuild *)
  time_alloc ~label:"continuum k=256 box=16 r=1.2" ~reps:10 (fun () ->
      (Continuum.broadcast
         { Continuum.box_side = 16.; agents = 256; radius = 1.2; sigma = 0.3;
           seed = 7; trial = 0; max_steps = 500 })
        .Continuum.steps);
  (* clementi dense baseline: one-hop exchange at scale *)
  time_alloc ~label:"clementi side=48 k=1152 R=4" ~reps:10 (fun () ->
      (Baselines.Clementi.broadcast
         { Baselines.Clementi.side = 48; agents = 1152; big_r = 4; rho = 4;
           seed = 7; trial = 0; max_steps = 4800 })
        .Baselines.Clementi.steps);
  (* barriers: DSU + LOS exchange *)
  let domain =
    Barriers.Domain.central_wall (Grid.create ~side:40 ()) ~gap:2
  in
  time_alloc ~label:"barrier side=40 k=24 wall gap=2" ~reps:10 (fun () ->
      (Barriers.Barrier_sim.broadcast
         { Barriers.Barrier_sim.domain; agents = 24; radius = 4;
           los_blocking = true; seed = 7; trial = 0; max_steps = 20_000 })
        .Barriers.Barrier_sim.steps);
  Option.iter write_json json_file
