(* Tests for Config and Protocol. *)

module Config = Mobile_network.Config
module Protocol = Mobile_network.Protocol

let ok cfg =
  match Config.validate cfg with
  | Ok () -> true
  | Error _ -> false

let test_defaults () =
  let cfg = Config.make ~side:10 ~agents:4 () in
  Alcotest.(check int) "radius" 0 cfg.Config.radius;
  Alcotest.(check bool) "protocol" true
    (Protocol.equal cfg.Config.protocol Protocol.Broadcast);
  Alcotest.(check int) "seed" 0 cfg.Config.seed;
  Alcotest.(check int) "trial" 0 cfg.Config.trial;
  Alcotest.(check bool) "valid" true (ok cfg);
  Alcotest.(check int) "n" 100 (Config.n cfg)

let test_validation_errors () =
  let bad_checks =
    [
      ("side", Config.make ~side:0 ~agents:4 ());
      ("agents", Config.make ~side:10 ~agents:0 ());
      ("radius", Config.make ~side:10 ~agents:4 ~radius:(-1) ());
      ("source range", Config.make ~side:10 ~agents:4 ~source:4 ());
      ("negative source", Config.make ~side:10 ~agents:4 ~source:(-1) ());
      ("max steps", Config.make ~side:10 ~agents:4 ~max_steps:(-5) ());
      ( "preys",
        Config.make ~side:10 ~agents:4
          ~protocol:(Protocol.Predator_prey { preys = -1 })
          () );
      ( "source with gossip",
        Config.make ~side:10 ~agents:4 ~protocol:Protocol.Gossip ~source:0 () );
      ( "source with cover-walks",
        Config.make ~side:10 ~agents:4 ~protocol:Protocol.Cover_walks
          ~source:0 () );
      (* a radius-1 bucket table of 16384^2 slots, and the bounded
         side 8193 at radius 2 (4097 columns, padded to 8192^2) *)
      ("index table", Config.make ~side:16384 ~agents:4 ~radius:1 ());
      ("index table, bounded", Config.make ~side:8193 ~agents:4 ~radius:2 ());
    ]
  in
  List.iter
    (fun (label, cfg) ->
      Alcotest.(check bool) (label ^ " rejected") false (ok cfg))
    bad_checks

let test_validation_accepts () =
  let good =
    [
      Config.make ~side:1 ~agents:1 ();
      Config.make ~side:10 ~agents:4 ~source:3 ();
      Config.make ~side:10 ~agents:4 ~protocol:Protocol.Frog ~source:0 ();
      Config.make ~side:10 ~agents:4
        ~protocol:(Protocol.Predator_prey { preys = 0 })
        ();
      Config.make ~side:10 ~agents:4 ~max_steps:0 ();
      (* the largest radius-1 table, 2^24 slots; on a torus side 8193
         at radius 2 has 4096 columns; radius 0 needs no bucket table *)
      Config.make ~side:4096 ~agents:4 ~radius:1 ();
      Config.make ~side:8193 ~agents:4 ~radius:2 ~torus:true ();
      Config.make ~side:65536 ~agents:4 ();
    ]
  in
  List.iter (fun cfg -> Alcotest.(check bool) "accepted" true (ok cfg)) good

let test_max_steps () =
  let cfg = Config.make ~side:10 ~agents:4 () in
  Alcotest.(check int) "explicit cap wins" 123
    (Config.effective_max_steps (Config.make ~side:10 ~agents:4 ~max_steps:123 ()));
  Alcotest.(check bool) "default generous when None" true
    (Config.effective_max_steps cfg > 10_000)

(* The root stream of a configuration's (seed, trial) pair: subsystem 0
   of Prng.split_stream, the engine's master stream. *)
let rng_for cfg =
  Prng.split_stream ~seed:cfg.Config.seed ~trial:cfg.Config.trial ~subsystem:0

let test_rng_for_deterministic () =
  let cfg = Config.make ~side:10 ~agents:4 ~seed:5 ~trial:2 () in
  let a = rng_for cfg and b = rng_for cfg in
  for _ = 1 to 20 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_rng_for_varies () =
  let base = Config.make ~side:10 ~agents:4 ~seed:5 ~trial:0 () in
  let diff_trial = { base with Config.trial = 1 } in
  let diff_seed = { base with Config.seed = 6 } in
  let d rng = Array.init 8 (fun _ -> Prng.bits64 rng) in
  let s0 = d (rng_for base) in
  Alcotest.(check bool) "trial changes stream" true
    (s0 <> d (rng_for diff_trial));
  Alcotest.(check bool) "seed changes stream" true
    (s0 <> d (rng_for diff_seed))

let test_percolation_helpers () =
  let cfg = Config.make ~side:32 ~agents:16 () in
  Alcotest.(check bool) "rc = 8" true
    (Float.abs (Config.percolation_radius cfg -. 8.) < 1e-9);
  Alcotest.(check bool) "r=0 subcritical" true (Config.is_subcritical cfg);
  let big_r = Config.make ~side:32 ~agents:16 ~radius:8 () in
  Alcotest.(check bool) "r=rc not subcritical" false
    (Config.is_subcritical big_r)

let test_to_string () =
  let cfg =
    Config.make ~side:8 ~agents:3 ~radius:2 ~protocol:Protocol.Gossip ~seed:9
      ~trial:1 ~max_steps:50 ()
  in
  let s = Config.to_string cfg in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "side" true (contains "side=8");
  Alcotest.(check bool) "k" true (contains "k=3");
  Alcotest.(check bool) "radius" true (contains "r=2");
  Alcotest.(check bool) "protocol" true (contains "gossip");
  Alcotest.(check bool) "cap" true (contains "cap=50")

(* --- protocol --- *)

let test_protocol_strings () =
  Alcotest.(check string) "broadcast" "broadcast"
    (Protocol.to_string Protocol.Broadcast);
  Alcotest.(check string) "predator" "predator-prey(7)"
    (Protocol.to_string (Protocol.Predator_prey { preys = 7 }))

let test_protocol_equal () =
  Alcotest.(check bool) "same" true (Protocol.equal Protocol.Frog Protocol.Frog);
  Alcotest.(check bool) "different" false
    (Protocol.equal Protocol.Frog Protocol.Broadcast);
  Alcotest.(check bool) "prey counts matter" false
    (Protocol.equal
       (Protocol.Predator_prey { preys = 1 })
       (Protocol.Predator_prey { preys = 2 }))

let test_protocol_population () =
  Alcotest.(check int) "broadcast population" 5
    (Protocol.population Protocol.Broadcast ~k:5);
  Alcotest.(check int) "predator adds preys" 9
    (Protocol.population (Protocol.Predator_prey { preys = 4 }) ~k:5)

let test_protocol_flooding () =
  Alcotest.(check bool) "broadcast floods" true
    (Protocol.is_flooding Protocol.Broadcast);
  Alcotest.(check bool) "gossip floods" true
    (Protocol.is_flooding Protocol.Gossip);
  Alcotest.(check bool) "predator does not flood" false
    (Protocol.is_flooding (Protocol.Predator_prey { preys = 1 }))

let () =
  Alcotest.run "config"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_defaults;
          Alcotest.test_case "validation rejects" `Quick
            test_validation_errors;
          Alcotest.test_case "validation accepts" `Quick
            test_validation_accepts;
          Alcotest.test_case "max steps" `Quick test_max_steps;
          Alcotest.test_case "rng deterministic" `Quick
            test_rng_for_deterministic;
          Alcotest.test_case "rng varies" `Quick test_rng_for_varies;
          Alcotest.test_case "percolation helpers" `Quick
            test_percolation_helpers;
          Alcotest.test_case "to_string" `Quick test_to_string;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "strings" `Quick test_protocol_strings;
          Alcotest.test_case "equal" `Quick test_protocol_equal;
          Alcotest.test_case "population" `Quick test_protocol_population;
          Alcotest.test_case "flooding" `Quick test_protocol_flooding;
        ] );
    ]
