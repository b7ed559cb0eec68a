(* The service workload: `mobisim serve --jobs 1` as a child process,
   driven by one closed-loop client (the next request goes out when the
   previous response is complete) through Service.Daemon.Client. *)

module Client = Service.Daemon.Client
module Compile = Scenario.Compile
module Json = Obs.Json

(* The traffic: a sweep of 4 cells x 2 trials of the paper's model, both
   protocols, run to completion, submitted cold (a fresh seed: compile,
   engine runs, cache writes), then resubmitted [resubmits] times warm
   (compile and cache reads only). *)
let sweep ~seed =
  Printf.sprintf
    {|{"side": 64, "agents": [32, 64], "protocol": ["broadcast", "gossip"], "trials": 2, "seed": %d}|}
    seed

let runs = 8
let resubmits = 10

(* The i-th distinct sweep of a run: every cold submit gets a fresh one. *)
let sweep_seed (ctx : Ctx.t) i = Prng.mix_seed ~seed:ctx.seed ~trial:i land 0x3FFF_FFFF

let submit_line text =
  Json.to_string (Json.Assoc [ ("op", Json.String "submit"); ("text", Json.String text) ])

type daemon = { pid : int; socket : string }

let request d line = Client.request ~socket_path:d.socket line

let healthy d =
  match request d {|{"op":"health"}|} with
  | Ok r -> String.starts_with ~prefix:{|{"ok":true|} r
  | Error _ -> false

(* Spawn a daemon over the files [name].* and wait until it answers;
   returns it with the spawn-to-healthy time in ns. The socket path is
   relative, so it stays short wherever the checkout lives. *)
let start (ctx : Ctx.t) name =
  let file ext = Ctx.path ctx (name ^ ext) in
  let socket = file ".sock" in
  let t0 = Ctx.now () in
  let pid =
    Proc.spawn ~log:(Ctx.log ctx) ~stdout_path:(file ".out") ctx.Ctx.mobisim
      [ "serve"; "--quiet"; "--root"; file ".root"; "--socket"; socket; "--jobs"; "1" ]
  in
  let d = { pid; socket } in
  let give_up = t0 + 30_000_000_000 in
  while (not (healthy d)) && Ctx.now () < give_up do
    Unix.sleepf 0.0002
  done;
  let up = Ctx.now () - t0 in
  Ctx.check ctx (Ctx.now () < give_up) "daemon never became healthy";
  (d, up)

(* Shut down (killing it if it does not answer) and reap; peak RSS in
   KiB. *)
let stop d =
  (match request d {|{"op":"shutdown"}|} with
  | Ok _ -> ()
  | Error _ -> ( try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  snd (Proc.wait4 d.pid)

(* Header [ok], then one result line per run. *)
let well_formed ~runs body =
  match String.split_on_char '\n' body with
  | header :: rest ->
      String.starts_with ~prefix:{|{"ok":true|} header
      && List.length (List.filter (fun l -> l <> "") rest) = runs
  | [] -> false

let nth_line body n = List.nth (String.split_on_char '\n' body) n

(* The served result of run [run] must be the payload the engine gives
   in-process for the same cell, seed and trial. *)
let oracle (ctx : Ctx.t) text body ~run =
  match Compile.compile text with
  | Error _ -> Ctx.check ctx false "sweep does not compile in-process"
  | Ok c ->
      let trials = c.Compile.trials in
      let cell = List.nth c.Compile.cells (run / trials) in
      let payload =
        Service.Runner.run_payload cell ~seed:c.Compile.seed ~trial:(run mod trials)
      in
      Ctx.check ctx
        (String.ends_with ~suffix:({|"result":|} ^ payload ^ "}") (nth_line body (run + 1)))
        "run %d of a cold submit differs from the in-process engine" run

let counter snapshot name =
  match Option.bind (Json.member "counters" snapshot) (Json.member name) with
  | Some (Json.Int n) -> float_of_int n
  | Some _ | None -> 0.

let histogram_p50 snapshot name =
  match Option.bind (Option.bind (Json.member "histograms" snapshot) (Json.member name)) (Json.member "p50_ns") with
  | Some (Json.Float x) -> x
  | Some (Json.Int n) -> float_of_int n
  | Some _ | None -> 0.

(* The daemon's own counters, as its metrics snapshot reports them. *)
let daemon_layers (ctx : Ctx.t) d =
  match Result.map Json.parse (request d {|{"op":"metrics"}|}) with
  | Ok (Ok snap) ->
      let hits = counter snap "service.cache.hits" and misses = counter snap "service.cache.misses" in
      [
        ("service.cache_hit_ratio", if hits +. misses = 0. then 0. else hits /. (hits +. misses));
        ("service.cells_computed", counter snap "service.cells.computed");
        ("pool.task_ns_p50", histogram_p50 snap "pool.task_ns");
        ("pool.queue_wait_ns_p50", histogram_p50 snap "pool.queue_wait_ns");
      ]
  | Ok (Error _) | Error _ ->
      Ctx.check ctx false "daemon metrics unreadable";
      []

let health_rtt_us (ctx : Ctx.t) d =
  let n = match ctx.Ctx.scale with Ctx.Full -> 200 | Ctx.Smoke -> 20 in
  let t0 = Ctx.now () in
  for _ = 1 to n do
    ignore (healthy d)
  done;
  float_of_int (Ctx.now () - t0) /. float_of_int n /. 1e3

(* The engine work of the cold submits, in-process: run [i] of the
   workload is cell [i mod 8 / 2], trial [i mod 2] of sweep [i / 8]. *)
let engine_config (ctx : Ctx.t) i =
  let seed = sweep_seed ctx (i / runs) in
  match Compile.compile (sweep ~seed) with
  | Ok c ->
      let r = i mod runs and trials = c.Compile.trials in
      Scenario.Ast.cell_config (List.nth c.Compile.cells (r / trials)) ~seed ~trial:(r mod trials)
  | Error errors -> failwith (String.concat "; " errors)

let run (ctx : Ctx.t) =
  let full = ctx.Ctx.scale = Ctx.Full in
  let setup_s = Sample.create () and op_ms = Ctx.ops () and warm_ms = Sample.create () in
  let pinned = Buffer.create 65536 in
  (* Set-up is a daemon start on an empty root. Its cost shifts between
     a few levels for a second or so at a time on a shared machine, so
     besides the daemon that serves the traffic, another one is started
     and stopped after every cold submit and its resubmits: the samples
     span the whole run. *)
  let boot name =
    let d, up = start ctx name in
    Sample.add setup_s (Obs.Clock.ns_to_s up);
    d
  in
  let d = boot "d" in
  let rss = ref 0 in
  let layers =
    Fun.protect
      ~finally:(fun () -> rss := stop d)
      (fun () ->
        let seconds = if ctx.Ctx.traced then ctx.Ctx.seconds /. 2. else ctx.Ctx.seconds in
        let submit add name i text =
          let t0 = Ctx.now () in
          let r = request d (submit_line text) in
          let t1 = Ctx.now () in
          add (float_of_int (t1 - t0) /. 1e6);
          Ctx.span ctx name ~t0 ~t1 ~v:i;
          match r with Ok body -> body | Error e -> e
        in
        let pin_ops = if full then 10 else 1 in
        let start = Ctx.now () in
        let i = ref 0 in
        while Ctx.until ctx ~start ~seconds ~min_ops:pin_ops !i do
          let text = sweep ~seed:(sweep_seed ctx !i) in
          let cold = submit (Ctx.add_op ctx op_ms) "submit.cold" !i text in
          Ctx.check ctx (well_formed ~runs cold) "cold submit %d: %s" !i cold;
          if !i < pin_ops then Buffer.add_string pinned cold;
          if !i mod 10 = 0 then oracle ctx text cold ~run:(!i / 10 mod runs);
          for j = 1 to resubmits do
            let warm = submit (Sample.add warm_ms) "submit.warm" ((!i * resubmits) + j) text in
            Ctx.check ctx (String.equal warm cold) "submit %d: warm resubmit %d differs from cold" !i j
          done;
          ignore (stop (boot "s"));
          incr i
        done;
        if not ctx.Ctx.traced then []
        else
          daemon_layers ctx d
          @ [
              ("daemon.health_rtt_us", health_rtt_us ctx d);
              ("service.warm_ms_p50", Sample.quantile warm_ms 0.5);
              ("service.warm_ms_p90", Sample.quantile warm_ms 0.9);
              ("service.warm_ms_p99", Sample.quantile warm_ms 0.99);
            ])
  in
  let layers =
    if not ctx.Ctx.traced then layers
    else
      let _, engine =
        Engine_wl.profile ctx ~config:(engine_config ctx) ~window:None ~pin_ops:0
          ~seconds:(if full then 1. else 0.05) ~min_ops:runs
      in
      let text = sweep ~seed:(sweep_seed ctx 0) in
      layers @ engine @ Probes.run ctx (engine_config ctx 0) ~scenario:text
  in
  {
    Ctx.setup_s;
    op_ms;
    heap_mib = Proc.mib_of_kib !rss;
    layers;
    digest = Digest.to_hex (Digest.string (Buffer.contents pinned));
    pin_seed = ctx.Ctx.seed;
  }
