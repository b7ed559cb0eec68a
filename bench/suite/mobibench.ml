(* mobibench: one benchmark for the whole simulator; README.md here
   explains the workloads and metrics.

     mobibench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
   runs one workload and prints a table, then as its last line one JSON
   object {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics of an untraced run (--trace 0), or the per-layer metrics of a
   traced run (--trace 1, which also writes .mobibench/NAME/layers.json
   and the Chrome trace .mobibench/NAME/trace.json).

     mobibench [--seed N] [--seconds S] [--trace 0|1]
   runs every workload, each in its own child process, one at a time.

     mobibench --smoke --spec BENCHMARK.json
   runs every workload at 1/50 scale in both modes and checks that each
   prints every metric the spec names, with its unit.

     mobibench --reference
   is the child that times the machine-speed reference for a run (see
   Ctx).

   Exits 1 when any operation or correctness check failed. *)

module Json = Obs.Json
module Protocol = Mobile_network.Protocol

let end_to_end = [ ("setup_s", "s"); ("op_ms_p10", "ms"); ("peak_rss_mb", "MB") ]

let per_layer =
  [
    ("core.phase.move_ns_per_step", "ns");
    ("core.phase.index_ns_per_step", "ns");
    ("core.phase.components_ns_per_step", "ns");
    ("core.phase.exchange_ns_per_step", "ns");
    ("core.phase.record_ns_per_step", "ns");
    ("core.phase_coverage", "ratio");
    ("core.agent_step_ns", "ns");
    ("core.words_per_step", "words");
    ("core.setup_words_per_agent", "words");
    ("gc.minor_per_kstep", "count");
    ("gc.major_per_kstep", "count");
    ("walk.move_all_ns_per_agent", "ns");
    ("prng.int5_ns", "ns");
    ("prng.split_ns", "ns");
    ("spatial.rebuild_soa_ns_per_agent", "ns");
    ("spatial.delta_frac", "ratio");
    ("spatial.close_pairs_per_step", "count");
    ("dsu.union_ns", "ns");
    ("dsu.find_ns", "ns");
    ("dsu.reset_ns", "ns");
    ("exchange.flood_single_ns_per_agent", "ns");
    ("exchange.flood_gossip_ns_per_agent", "ns");
    ("scenario.compile_us", "us");
    ("store.put_us", "us");
    ("store.get_us", "us");
    ("op_ms_p50", "ms");
    ("op_ms_p90", "ms");
    ("op_ms_p99", "ms");
    ("op_samples", "count");
    ("obs.overhead_frac", "ratio");
    ("machine.reference_ms", "ms");
  ]

let sparse_r0 _ =
  { Engine_wl.side = 64; agents = 64; radius = 0; protocol = Protocol.Broadcast; window = None; pin_ops = 100 }

let population_256k = function
  | Ctx.Full ->
      { Engine_wl.side = 2048; agents = 262144; radius = 0; protocol = Protocol.Broadcast; window = Some 60; pin_ops = 60 }
  | Ctx.Smoke ->
      { Engine_wl.side = 256; agents = 4096; radius = 0; protocol = Protocol.Broadcast; window = Some 60; pin_ops = 60 }

let dense_gossip _ =
  { Engine_wl.side = 64; agents = 256; radius = 2; protocol = Protocol.Gossip; window = None; pin_ops = 30 }

let engine spec (ctx : Ctx.t) = Engine_wl.run (spec ctx.Ctx.scale) ctx

let workloads =
  [
    ("sparse_r0", engine sparse_r0);
    ("population_256k", engine population_256k);
    ("dense_gossip", engine dense_gossip);
    ("service_submit", Service_wl.run);
    ("reproduce_quick", Exp_wl.run);
  ]

type args = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable scale : Ctx.scale;
  mutable mobisim : string;
  mutable smoke : bool;
  mutable spec : string;
}

let usage () =
  prerr_endline
    "usage: mobibench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]\n\
    \                 [--mobisim PATH] | --smoke --spec BENCHMARK.json";
  exit 2

let parse_args argv =
  let a =
    {
      workload = None;
      seed = 1;
      seconds = 15.;
      trace = false;
      scale = Ctx.Full;
      mobisim = "_build/default/bin/mobisim.exe";
      smoke = false;
      spec = "BENCHMARK.json";
    }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem_assoc w workloads ->
        a.workload <- Some w;
        go rest
    | "--seed" :: n :: rest when Option.fold ~none:false ~some:(fun n -> n >= 0) (int_of_string_opt n) ->
        a.seed <- int_of_string n;
        go rest
    | "--seconds" :: s :: rest when Option.fold ~none:false ~some:(fun s -> s > 0.) (float_of_string_opt s) ->
        a.seconds <- float_of_string s;
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        a.trace <- t = "1";
        go rest
    | "--traced" :: rest ->
        a.trace <- true;
        go rest
    | "--scale" :: "smoke" :: rest ->
        a.scale <- Ctx.Smoke;
        go rest
    | "--mobisim" :: p :: rest ->
        a.mobisim <- p;
        go rest
    | "--smoke" :: rest ->
        a.smoke <- true;
        go rest
    | "--spec" :: p :: rest ->
        a.spec <- p;
        go rest
    | arg :: _ ->
        Printf.eprintf "mobibench: bad argument %S\n" arg;
        usage ()
  in
  go (List.tl (Array.to_list argv));
  a

let scratch_root = ".mobibench"

(* A metric for the result line: non-finite values (nothing measured)
   count as failures and print as 0, so the line stays valid JSON. *)
let metric (ctx : Ctx.t) (name, unit) value =
  let ok = Float.is_finite value in
  Ctx.check ctx ok "metric %s was not measured" name;
  (name, Json.Assoc [ ("value", Json.Float (if ok then value else 0.)); ("unit", Json.String unit) ])

let print_summary (name, unit) (s : Sample.summary) =
  Printf.printf "  %-20s %-4s %14.6g  n=%-6d p25=%-12.6g p75=%-12.6g ci95=[%.6g, %.6g]\n" name unit
    s.Sample.value s.Sample.n s.Sample.p25 s.Sample.p75 s.Sample.ci_lo s.Sample.ci_hi

let run_workload a name =
  let dir = Filename.concat scratch_root name in
  Proc.rm_rf dir;
  Proc.mkdir_p dir;
  let seconds = match a.scale with Ctx.Full -> a.seconds | Ctx.Smoke -> a.seconds /. 50. in
  let ctx =
    {
      Ctx.workload = name;
      seed = a.seed;
      seconds;
      traced = a.trace;
      scale = a.scale;
      dir;
      mobisim = a.mobisim;
      tracer = (if a.trace then Obs.Tracer.create ~capacity:(1 lsl 18) () else Obs.Tracer.null);
      attempted = 0;
      failed = 0;
      meter = Ctx.start_meter ();
      reference = Sample.create ();
      reference_ms = nan;
      since_op = [];
      last_reference = 0;
    }
  in
  Ctx.time_reference ctx;
  let started = Ctx.now () in
  let m =
    match (List.assoc name workloads) ctx with
    | m -> Some m
    | exception e ->
        Ctx.check ctx false "%s" (Printexc.to_string e);
        None
  in
  Ctx.span ctx "workload" ~t0:started ~t1:(Ctx.now ()) ~v:a.seed;
  Ctx.stop_meter ctx.Ctx.meter;
  Printf.printf "mobibench %s seed=%d seconds=%g trace=%d scale=%s\n" name a.seed a.seconds
    (Bool.to_int a.trace)
    (match a.scale with Ctx.Full -> "full" | Ctx.Smoke -> "smoke");
  let metrics =
    match m with
    | None -> []
    | Some m ->
        Printf.printf "  digest (seed %d) %s\n" m.Ctx.pin_seed m.Ctx.digest;
        (if a.scale = Ctx.Full then
           match Pinned.find ~workload:name ~seed:m.Ctx.pin_seed with
           | Some d ->
               Ctx.check ctx (String.equal d m.Ctx.digest) "digest %s differs from the pinned %s"
                 m.Ctx.digest d
           | None -> ());
        let p q = Sample.quantile m.Ctx.op_ms.Ctx.raw q in
        let reference_ms = Sample.quantile ctx.Ctx.reference 0.5 in
        Printf.printf
          "  reference loop p10 %.4f ms, p50 %.4f ms (n=%d); times below are at reference speed\n"
          (Sample.quantile ctx.Ctx.reference 0.1)
          reference_ms (Sample.length ctx.Ctx.reference);
        if not a.trace then begin
          let summaries =
            List.combine end_to_end
              [
                Sample.scale (1. /. reference_ms) (Sample.summarize ~seed:a.seed ~q:0.5 m.Ctx.setup_s);
                Sample.summarize ~seed:a.seed ~q:0.1 m.Ctx.op_ms.Ctx.scaled;
                Sample.single (m.Ctx.heap_mib *. 1.048576);
              ]
          in
          List.iter (fun (metric, s) -> print_summary metric s) summaries;
          List.map (fun (metric', s) -> metric ctx metric' s.Sample.value) summaries
        end
        else begin
          let layers =
            m.Ctx.layers
            @ [
                ("op_ms_p50", p 0.5);
                ("op_ms_p90", p 0.9);
                ("op_ms_p99", p 0.99);
                ("op_samples", float_of_int (Sample.length m.Ctx.op_ms.Ctx.raw));
                ("machine.reference_ms", reference_ms);
              ]
          in
          List.iter (fun (n, v) -> Printf.printf "  %-40s %16.6g\n" n v) layers;
          let oc = open_out (Filename.concat dir "layers.json") in
          output_string oc
            (Json.to_string_pretty (Json.Assoc (List.map (fun (n, v) -> (n, Json.Float v)) layers)));
          close_out oc;
          let oc = open_out (Filename.concat dir "trace.json") in
          output_string oc (Obs.Tracer.export_string ctx.Ctx.tracer);
          close_out oc;
          List.map
            (fun ((n, _) as named) ->
              metric ctx named (Option.value (List.assoc_opt n layers) ~default:nan))
            per_layer
        end
  in
  let correct = ctx.Ctx.failed = 0 in
  print_endline
    (Json.to_string
       (Json.Assoc
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int ctx.Ctx.attempted);
            ("failed", Json.Int ctx.Ctx.failed);
            ("metrics", Json.Assoc metrics);
          ]));
  if correct then 0 else 1

(* Run [args] of this executable as a child; its stdout goes to [stdout]. *)
let self_child ~stdout args =
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin stdout Unix.stderr
  in
  fst (Proc.wait4 pid)

let child_args a name ~trace =
  [
    "--workload"; name;
    "--seed"; string_of_int a.seed;
    "--seconds"; Printf.sprintf "%g" a.seconds;
    "--trace"; (if trace then "1" else "0");
    "--mobisim"; a.mobisim;
  ]
  @ if a.scale = Ctx.Smoke then [ "--scale"; "smoke" ] else []

let last_line text =
  match List.rev (List.filter (fun l -> l <> "") (String.split_on_char '\n' text)) with
  | l :: _ -> l
  | [] -> ""

let string_field name j =
  match Json.member name j with Some (Json.String s) -> Some s | Some _ | None -> None

(* The entries under [key] of the benchmark spec. *)
let spec_list doc key = match Json.member key doc with Some (Json.List l) -> l | Some _ | None -> []

let name_and_unit m =
  match (string_field "name" m, string_field "unit" m) with
  | Some n, Some u -> Some (n, u)
  | _ -> None

let smoke a =
  let a = { a with scale = Ctx.Smoke } in
  let doc =
    match Json.parse (Proc.read_file a.spec) with
    | Ok doc -> doc
    | Error e -> failwith (a.spec ^ ": " ^ e)
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if List.filter_map (string_field "name") (spec_list doc "workloads") <> List.map fst workloads
  then problem "BENCHMARK.json names other workloads";
  let dir = Filename.concat scratch_root "smoke" in
  Proc.mkdir_p dir;
  List.iter
    (fun (name, _) ->
      List.iter
        (fun trace ->
          let out = Filename.concat dir (Printf.sprintf "%s-%d.out" name (Bool.to_int trace)) in
          let fd = Proc.open_out_fd out in
          let t0 = Ctx.now () in
          let code = Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> self_child ~stdout:fd (child_args a name ~trace)) in
          Printf.printf "smoke %-16s trace=%d exit=%d %.2fs\n%!" name (Bool.to_int trace) code
            (Obs.Clock.ns_to_s (Ctx.now () - t0));
          if code <> 0 then problem "%s trace=%b exited %d" name trace code;
          let expected =
            List.filter_map name_and_unit (spec_list doc (if trace then "per_layer" else "end_to_end"))
          in
          match Json.parse (last_line (Proc.read_file out)) with
          | Error e -> problem "%s trace=%b: result line: %s" name trace e
          | Ok result -> (
              match Json.member "metrics" result with
              | Some (Json.Assoc got) ->
                  let got = List.map (fun (n, v) -> (n, string_field "unit" v)) got in
                  if got <> List.map (fun (n, u) -> (n, Some u)) expected then
                    problem "%s trace=%b: metrics or units differ from the spec" name trace
              | _ -> problem "%s trace=%b: no metrics" name trace))
        [ false; true ])
    workloads;
  List.iter (fun p -> Printf.printf "smoke: FAIL: %s\n" p) (List.rev !problems);
  if !problems = [] then (print_endline "smoke: OK"; 0) else 1

let () =
  match Array.to_list Sys.argv with
  | [ _; "--reference" ] -> Ctx.serve_reference ()
  | _ ->
      let a = parse_args Sys.argv in
      exit
        (if a.smoke then smoke a
         else
           match a.workload with
           | Some name -> run_workload a name
           | None ->
               List.fold_left
                 (fun code (name, _) ->
                   max code (self_child ~stdout:Unix.stdout (child_args a name ~trace:a.trace)))
                 0 workloads)
