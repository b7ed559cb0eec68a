(* State-machine tests for the fault-injection subsystem: plan
   validation and JSON round-trips, the runtime invariants the adversary
   must preserve (informed-set monotonicity, conservation under churn,
   blackout freezes, byzantine role semantics), and the agreement
   between the role-masked fixpoint flood and component flooding. *)

module Plan = Faults.Plan
module Config = Mobile_network.Config
module Simulation = Mobile_network.Simulation
module Exchange = Mobile_network.Exchange

(* --- Plan validation and JSON ------------------------------------------ *)

let expect_invalid label plan =
  match Plan.validate plan with
  | Ok () -> Alcotest.failf "%s: expected validation failure" label
  | Error _ -> ()

let test_plan_validate () =
  Alcotest.(check bool) "empty valid" true (Result.is_ok (Plan.validate Plan.empty));
  expect_invalid "loss > 1" { Plan.empty with Plan.loss_p = 1.5 };
  expect_invalid "loss < 0" { Plan.empty with Plan.loss_p = -0.1 };
  expect_invalid "period 0" { Plan.empty with Plan.duty = Some (0, 0) };
  expect_invalid "off > period" { Plan.empty with Plan.duty = Some (5, 4) };
  expect_invalid "window until < from"
    { Plan.empty with
      Plan.windows = [ { Plan.w_from = 9; w_until = 3; w_agent = None } ] };
  expect_invalid "negative silent id" { Plan.empty with Plan.silent = [ -1 ] };
  expect_invalid "churn leave > 1"
    { Plan.empty with
      Plan.churn = Some { Plan.leave_p = 1.2; return_p = 0.5 } }

let test_plan_json_errors () =
  (match Plan.of_string "{ \"loss_q\": 0.5 }" with
  | Ok _ -> Alcotest.fail "unknown field accepted"
  | Error msg ->
      Alcotest.(check bool) "names the field" true
        (String.length msg > 0));
  (match Plan.of_string "not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  (match Plan.of_string "{ \"loss_p\": 2.0 }" with
  | Ok _ -> Alcotest.fail "invalid probability accepted"
  | Error _ -> ());
  (* the pinned diagnostic of each malformed plan: a plan stops at its
     first problem, reported at the offending value, the unknown key or
     the object missing a required key *)
  List.iter
    (fun (text, expected) ->
      match Plan.of_string ~filename:"f.json" text with
      | Ok _ -> Alcotest.failf "%s: accepted" text
      | Error msg -> Alcotest.(check string) text expected msg)
    [
      ({|{"loss_p": "high"}|}, "f.json:1:12: faults: loss_p must be a number");
      ({|{"outage": 3}|}, "f.json:1:12: faults: outage must be an object");
      ( {|{"outage": {"off": "1", "period": 4}}|},
        "f.json:1:20: faults: outage 'off' must be an integer" );
      ( {|{"outage": {"off": 1, "period": 4.5}}|},
        "f.json:1:33: faults: outage 'period' must be an integer" );
      ( {|{"outage": {"period": 4}}|},
        "f.json:1:12: faults: outage is missing 'off'" );
      ( {|{"outage": {"off": 1}}|},
        "f.json:1:12: faults: outage is missing 'period'" );
      ( {|{"outage": {"off": 1, "period": 4, "phase": 2}}|},
        "f.json:1:36: faults: unknown field \"phase\" in outage (expected: \
         off, period)" );
      ({|{"windows": {}}|}, "f.json:1:13: faults: windows must be a list");
      ( {|{"windows": [3]}|},
        "f.json:1:14: faults: windows entry must be an object" );
      ( {|{"windows": [{"from": "0", "until": 3}]}|},
        "f.json:1:23: faults: window 'from' must be an integer" );
      ( {|{"windows": [{"from": 0, "until": null}]}|},
        "f.json:1:35: faults: window 'until' must be an integer" );
      ( {|{"windows": [{"from": 0, "until": 3, "agent": "a"}]}|},
        "f.json:1:47: faults: window 'agent' must be an integer" );
      ( {|{"windows": [{"until": 3}]}|},
        "f.json:1:14: faults: window is missing 'from'" );
      ( {|{"windows": [{"from": 0}]}|},
        "f.json:1:14: faults: window is missing 'until'" );
      ( {|{"windows": [{"from": 0, "until": 3, "agents": 1}]}|},
        "f.json:1:38: faults: unknown field \"agents\" in windows entry \
         (expected: from, until, agent)" );
      ({|{"churn": true}|}, "f.json:1:11: faults: churn must be an object");
      ( {|{"churn": {"leave_p": "0.1"}}|},
        "f.json:1:23: faults: churn 'leave_p' must be a number" );
      ( {|{"churn": {"leave_p": 0.1, "return_p": [1]}}|},
        "f.json:1:40: faults: churn 'return_p' must be a number" );
      ( {|{"churn": {"return_p": 0.5}}|},
        "f.json:1:11: faults: churn is missing 'leave_p'" );
      ( {|{"churn": {"leave_p": 0.1, "rejoin_p": 0.5}}|},
        "f.json:1:28: faults: unknown field \"rejoin_p\" in churn (expected: \
         leave_p, return_p)" );
      ({|{"silent": 3}|}, "f.json:1:12: faults: silent must be a list");
      ( {|{"silent": [1, "two"]}|},
        "f.json:1:16: faults: silent entry must be an integer" );
      ({|{"deaf": [0.5]}|}, "f.json:1:11: faults: deaf entry must be an integer");
      ({|{"deaf": "all"}|}, "f.json:1:10: faults: deaf must be a list");
      ( {|{"loss_q": 0.5, "dead": [1]}|},
        "f.json:1:2: faults: unknown field \"loss_q\" in fault plan \
         (expected: loss_p, outage, windows, churn, silent, deaf)" );
      ("[]", "f.json:1:1: faults: fault plan must be an object");
      ( {|{"outage": {"off": 5, "period": 4}}|},
        "f.json:1:12: outage duty cycle needs 0 <= off <= period and period > 0"
      );
      ( {|{"windows": [{"from": 4, "until": 2}]}|},
        "f.json:1:13: window 'from' exceeds 'until'" );
      ( {|{"churn": {"leave_p": 0.1, "return_p": 1.5}}|},
        "f.json:1:11: churn return_p must lie in [0, 1]" );
      ({|{"deaf": [-1]}|}, "f.json:1:10: deaf agent indices must be non-negative");
      ( "{\n\
        \  \"loss_p\": 0.1,\n\
        \  \"windows\": [\n\
        \    {\"from\": 1, \"until\": 2},\n\
        \    {\"from\": 1, \"until\": \"3\"}\n\
        \  ]\n\
         }",
        "f.json:5:26: faults: window 'until' must be an integer" );
    ]

let test_plan_max_agent () =
  Alcotest.(check int) "empty" (-1) (Plan.max_agent_id Plan.empty);
  Alcotest.(check int) "roles and windows" 9
    (Plan.max_agent_id
       { Plan.empty with
         Plan.silent = [ 4 ];
         deaf = [ 2 ];
         windows = [ { Plan.w_from = 0; w_until = 1; w_agent = Some 9 } ] })

let prop_generated_plans_validate =
  QCheck.Test.make ~name:"generated plans validate" ~count:200
    (Qgen.plan ~agents:8) (fun p -> Result.is_ok (Plan.validate p))

let prop_plan_roundtrip =
  QCheck.Test.make ~name:"JSON round-trip is the identity" ~count:200
    (Qgen.plan ~agents:8) (fun p ->
      match Plan.of_string (Plan.to_string p) with
      | Error msg -> QCheck.Test.fail_reportf "re-parse failed: %s" msg
      | Ok p' -> String.equal (Plan.to_string p) (Plan.to_string p'))

let prop_mutated_plans_diagnosed =
  QCheck.Test.make ~name:"mutated plans never raise" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         QCheck.gen (Qgen.plan ~agents:8) >|= Plan.to_string >>= Qgen.mutate))
    (fun text ->
      match Plan.of_string ~filename:"f.json" text with
      | Ok _ -> true
      | Error msg -> Qgen.has_position ~file:"f.json" msg)

(* --- runtime invariants ------------------------------------------------- *)

let cfg ?(side = 16) ?(agents = 8) ?(max_steps = 2000) ?source plan =
  Config.make ~side ~agents ~radius:1 ~seed:7 ~trial:0 ?source ~max_steps
    ~faults:plan ()

(* Step to completion (or the cap), recording the informed count after
   every step (index 0 = after the initial exchange) and running [check]
   against the live simulation each step. *)
let informed_series ?(check = fun _ -> ()) config =
  (* is_done is the protocol predicate alone; the cap lives in [run], so
     a manual stepping loop must enforce it itself *)
  let cap = Config.effective_max_steps config in
  let sim = Simulation.create config in
  let series = ref [ Simulation.informed_count sim ] in
  check sim;
  while (not (Simulation.is_done sim)) && Simulation.time sim < cap do
    Simulation.step sim;
    series := Simulation.informed_count sim :: !series;
    check sim
  done;
  Array.of_list (List.rev !series)

let assert_monotone label series =
  Array.iteri
    (fun t v ->
      if t > 0 && v < series.(t - 1) then
        Alcotest.failf "%s: informed dropped %d -> %d at step %d" label
          series.(t - 1) v t)
    series

let test_monotone_fault_free () =
  assert_monotone "fault-free" (informed_series (cfg Plan.empty))

let test_monotone_loss_only () =
  assert_monotone "loss 0.4"
    (informed_series (cfg { Plan.empty with Plan.loss_p = 0.4 }))

let test_outage_freezes_informed () =
  (* global window: exchanges on steps 5..14 are blacked out, so the
     informed count cannot change there (motion continues) *)
  let plan =
    { Plan.empty with
      Plan.windows = [ { Plan.w_from = 5; w_until = 15; w_agent = None } ] }
  in
  let series = informed_series (cfg plan) in
  assert_monotone "outage" series;
  if Array.length series > 15 then
    for t = 5 to 14 do
      Alcotest.(check int)
        (Printf.sprintf "frozen at step %d" t)
        series.(4) series.(t)
    done

let test_churn_conservation () =
  let k = 8 in
  let plan =
    { Plan.empty with
      Plan.churn = Some { Plan.leave_p = 0.1; return_p = 0.3 } }
  in
  let check sim =
    let p = Simulation.present_count sim in
    if p < 0 || p > k then
      Alcotest.failf "present count %d outside [0, %d]" p k;
    (* the DSU side never loses an agent either: component sizes
       partition the whole population, present or not *)
    if Simulation.time sim mod 10 = 0 then (
      let total = Array.fold_left ( + ) 0 (Simulation.island_sizes sim) in
      Alcotest.(check int) "island sizes partition the population" k total)
  in
  assert_monotone "churn" (informed_series ~check (cfg ~agents:k plan))

let test_no_churn_all_present () =
  let check sim =
    Alcotest.(check int) "all present" 8 (Simulation.present_count sim)
  in
  ignore
    (informed_series ~check (cfg { Plan.empty with Plan.loss_p = 0.2 }))

let test_silent_source_never_spreads () =
  let plan = { Plan.empty with Plan.silent = [ 0 ] } in
  let config = cfg ~max_steps:300 ~source:0 plan in
  let check sim =
    Alcotest.(check int) "only the source knows" 1
      (Simulation.informed_count sim)
  in
  let series = informed_series ~check config in
  Alcotest.(check int) "timed out with one informed" 1
    series.(Array.length series - 1)

let test_deaf_agent_never_learns () =
  let plan = { Plan.empty with Plan.deaf = [ 5 ] } in
  let config = cfg ~max_steps:300 ~source:0 plan in
  let check sim =
    if Simulation.is_informed sim 5 then
      Alcotest.failf "deaf agent informed at step %d" (Simulation.time sim)
  in
  ignore (informed_series ~check config)

let test_replay_identical () =
  let plan =
    { Plan.empty with
      Plan.loss_p = 0.3;
      churn = Some { Plan.leave_p = 0.05; return_p = 0.5 } }
  in
  let a = informed_series (cfg plan) and b = informed_series (cfg plan) in
  Alcotest.(check (array int)) "same informed series replayed" a b

let test_roles_need_broadcast () =
  let bad =
    Config.make ~side:16 ~agents:8 ~radius:1
      ~protocol:Mobile_network.Protocol.Gossip
      ~faults:{ Plan.empty with Plan.silent = [ 0 ] }
      ()
  in
  (match Config.validate bad with
  | Ok () -> Alcotest.fail "gossip with silent agent validated"
  | Error _ -> ());
  let out_of_range =
    Config.make ~side:16 ~agents:8 ~radius:1
      ~faults:{ Plan.empty with Plan.deaf = [ 8 ] }
      ()
  in
  match Config.validate out_of_range with
  | Ok () -> Alcotest.fail "out-of-range deaf agent validated"
  | Error _ -> ()

(* --- step-pipeline regression pins -------------------------------------- *)

(* Every (protocol, mechanism, roles) arm of the engine's faulted step,
   under loss + churn + a global outage window, pinned as
   (steps, informed, max_island) plus an MD5 of the per-step informed
   counts. The pins were measured before the fault-free and faulted
   steps were merged into one pipeline, so any change to a loss draw,
   the presence mask or an exchange arm shows here. Only the component
   floods build the DSU during the step; the other arms' max_island is
   built from the last step's pairs when it is read. Each no-roles case
   also runs fault-free, to check which phases record a sample:
   components iff the exchange floods or faults are on, exchange unless
   the protocol has none (cover walks). *)
module Grid_engine = Mobile_network.Engine.Make (Mobile_network.Grid_space)

let pinned_plan ~roles =
  {
    Plan.empty with
    Plan.loss_p = 0.3;
    windows = [ { Plan.w_from = 4; w_until = 9; w_agent = None } ];
    churn = Some { Plan.leave_p = 0.05; return_p = 0.4 };
    silent = (if roles then [ 1; 3 ] else []);
    deaf = (if roles then [ 2 ] else []);
  }

let pinned_run ?(topology = Grid.Bounded) ?(radius = 1) ~faulted
    (protocol, exchange, roles) =
  let space =
    Mobile_network.Grid_space.create (Grid.create ~topology ~side:12 ())
      ~kernel:Walk.Lazy_one_fifth ~radius
  in
  let spec =
    {
      (Mobile_network.Engine.default_spec ~agents:24 ~seed:5 ~trial:1
         ~max_steps:300)
      with
      Mobile_network.Engine.protocol;
      exchange;
      faults = (if faulted then pinned_plan ~roles else Plan.empty);
    }
  in
  let reg = Obs.Registry.create () in
  let e = Grid_engine.create ~metrics:(Obs.Sink.of_registry reg) ~space spec in
  let counts = Buffer.create 1024 in
  let record () =
    Buffer.add_string counts (string_of_int (Grid_engine.informed_count e));
    Buffer.add_char counts ' '
  in
  record ();
  let report = Grid_engine.run ~on_step:(fun _ -> record ()) e in
  let samples phase =
    Obs.Metric.Histogram.count
      (Obs.Registry.histogram reg ("sim.phase." ^ phase ^ "_ns"))
  in
  ( ( report.Mobile_network.Engine.steps,
      report.Mobile_network.Engine.informed,
      Grid_engine.max_island e,
      Digest.to_hex (Digest.string (Buffer.contents counts)) ),
    (samples "components", samples "exchange") )

let pinned_cases =
  let module P = Mobile_network.Protocol in
  let flood = Exchange.Flood_component and hop = Exchange.Single_hop in
  let arms roles p = [ (p, flood, roles); (p, hop, roles) ] in
  let single_rumor = [ P.Broadcast; P.Frog; P.Broadcast_cover ] in
  List.concat_map (arms false)
    (single_rumor @ [ P.Gossip; P.Cover_walks; P.Predator_prey { preys = 6 } ])
  @ List.concat_map (arms true) single_rumor

let pinned_label (protocol, exchange, roles) =
  Printf.sprintf "%s/%s%s"
    (Mobile_network.Protocol.to_string protocol)
    (match exchange with
    | Exchange.Flood_component -> "flood"
    | Exchange.Single_hop -> "single-hop")
    (if roles then "/roles" else "")

(* measured before the merge; label -> (steps, informed, max_island,
   MD5 of the informed counts) *)
let pinned_expected =
  [
    ( "broadcast/flood",
      (51, 24, 3, "29aa275f4b92cd702b1b4130d043f4d7") );
    ( "broadcast/single-hop",
      (68, 24, 6, "799b3a09e88b0d17a427438d664b3dd5") );
    ( "frog/flood",
      (65, 24, 2, "46d2c3d403a478b054f54adeed14c623") );
    ( "frog/single-hop",
      (65, 24, 2, "3b1eb1c9a49626dda200edafed6730d1") );
    ( "broadcast-cover/flood",
      (87, 24, 3, "eda7cfd85d51761c881209c665ca21e3") );
    ( "broadcast-cover/single-hop",
      (96, 24, 2, "fbc003a0055437ed76c1d48bcc8c4eeb") );
    ( "gossip/flood",
      (117, 24, 3, "9e6b7b05aab4ebb6b5441736380986df") );
    ( "gossip/single-hop",
      (117, 24, 3, "5b61d410e260186869fea210350ff6be") );
    ( "cover-walks/flood",
      (87, 24, 3, "2c89ee20645d93ae5c854821daaeabd2") );
    ( "cover-walks/single-hop",
      (87, 24, 3, "2c89ee20645d93ae5c854821daaeabd2") );
    ( "predator-prey(6)/flood",
      (32, 30, 0, "8629f3d366116ac370054e43b86e27e3") );
    ( "predator-prey(6)/single-hop",
      (32, 30, 0, "8629f3d366116ac370054e43b86e27e3") );
    ( "broadcast/flood/roles",
      (300, 23, 2, "5460a7374fc2343992587df11f5f507f") );
    ( "broadcast/single-hop/roles",
      (300, 23, 2, "6d5cebc2b7f1cfb27f734af223c29042") );
    ( "frog/flood/roles",
      (300, 23, 3, "dcbede4f5cd2fd8ca217099e6376fd50") );
    ( "frog/single-hop/roles",
      (300, 23, 2, "9ac5c6f896a3b70c5be886180bc65621") );
    ( "broadcast-cover/flood/roles",
      (96, 23, 2, "12961f104932c9aac99a080d65324652") );
    ( "broadcast-cover/single-hop/roles",
      (96, 23, 2, "650e37ff8e7885e579de43fbe61c4e22") );
  ]

let check_phase_samples ~faulted case =
  let protocol, exchange, _ = case in
  let module P = Mobile_network.Protocol in
  let (steps, _, _, _), (components, exchanges) = pinned_run ~faulted case in
  let label = pinned_label case ^ if faulted then "" else "/fault-free" in
  (* one sample per executed step plus the time-0 exchange *)
  let per_step on = if on then steps + 1 else 0 in
  let floods =
    match (protocol, exchange) with
    | (P.Cover_walks | P.Predator_prey _), _ | _, Exchange.Single_hop -> false
    | _, Exchange.Flood_component -> true
  in
  Alcotest.(check int) (label ^ " components samples")
    (per_step (faulted || floods)) components;
  Alcotest.(check int) (label ^ " exchange samples")
    (per_step (protocol <> P.Cover_walks)) exchanges

let test_pinned_fault_runs () =
  List.iter
    (fun ((_, _, roles) as case) ->
      let label = pinned_label case in
      let (steps, informed, island, digest), _ =
        pinned_run ~faulted:true case
      in
      let e_steps, e_informed, e_island, e_digest =
        List.assoc label pinned_expected
      in
      Alcotest.(check int) (label ^ " steps") e_steps steps;
      Alcotest.(check int) (label ^ " informed") e_informed informed;
      Alcotest.(check int) (label ^ " max_island") e_island island;
      Alcotest.(check string) (label ^ " informed series") e_digest digest;
      check_phase_samples ~faulted:true case;
      if not roles then check_phase_samples ~faulted:false case)
    pinned_cases

(* Radius 2, bounded and torus, under the same loss + churn plan. The
   pins above all run at radius 1 on a bounded grid, yet a loss draw
   follows every visited pair, so these fix the bucket table's pair
   order at a wider radius and across the torus wrap. Measured before
   the bucket table's rewrite; topology -> (steps, informed, MD5 of the
   informed counts). *)
let radius2_cases =
  let module P = Mobile_network.Protocol in
  [
    ( "bounded", Grid.Bounded, (P.Broadcast, Exchange.Flood_component, false),
      (29, 24, "98ee4024a4254f1d04176d223cc2f25e") );
    ( "torus", Grid.Torus, (P.Broadcast, Exchange.Single_hop, false),
      (24, 24, "34924e811c14f1bc61354d48e79d32b2") );
  ]

let test_pinned_radius2_fault_runs () =
  List.iter
    (fun (name, topology, case, (e_steps, e_informed, e_digest)) ->
      let label = Printf.sprintf "r=2 %s %s" name (pinned_label case) in
      let (steps, informed, _, digest), _ =
        pinned_run ~topology ~radius:2 ~faulted:true case
      in
      Alcotest.(check int) (label ^ " steps") e_steps steps;
      Alcotest.(check int) (label ^ " informed") e_informed informed;
      Alcotest.(check string) (label ^ " informed series") e_digest digest)
    radius2_cases

(* --- masked flood vs component flood ----------------------------------- *)

(* With all-true roles, the fixpoint flood over a pair list must inform
   exactly the union of the components touching an informed agent — the
   equivalence the fault engine's no-roles fast path relies on. *)
let prop_masked_flood_matches_components =
  let n = 12 in
  QCheck.Test.make ~name:"masked flood (all-true roles) = component flood"
    ~count:300
    QCheck.(pair (Qgen.unions n) (int_range 0 (n - 1)))
    (fun (pairs, source) ->
      let fresh () =
        let informed = Array.make n false in
        informed.(source) <- true;
        let ex =
          Exchange.create ~population:n ~predators:0 ~informed ~rumors:[||]
        in
        ex.Exchange.informed_count <- 1;
        ex
      in
      let by_components = fresh () in
      let dsu = Dsu.create n in
      List.iter (fun (i, j) -> ignore (Dsu.union dsu i j)) pairs;
      Exchange.flood_single by_components ~dsu;
      let by_fixpoint = fresh () in
      let all = Array.make n true in
      Exchange.flood_single_masked by_fixpoint
        ~iter_pairs:(fun f -> List.iter (fun (i, j) -> f i j) pairs)
        ~transmits:all ~accepts:all;
      by_components.Exchange.informed_count
      = by_fixpoint.Exchange.informed_count
      && Array.for_all2 Bool.equal by_components.Exchange.informed
           by_fixpoint.Exchange.informed)

(* --- random-plan state sweep ------------------------------------------- *)

(* The harness proper: run short broadcasts under arbitrary generated
   plans and assert the cross-cutting invariants hold throughout. *)
let prop_random_plan_invariants =
  QCheck.Test.make ~name:"invariants hold under arbitrary plans" ~count:25
    (Qgen.plan ~agents:6) (fun plan ->
      let config =
        Config.make ~side:12 ~agents:6 ~radius:1 ~seed:11 ~trial:0
          ~max_steps:300 ~faults:plan ()
      in
      let cap = Config.effective_max_steps config in
      let sim = Simulation.create config in
      let prev = ref (Simulation.informed_count sim) in
      let ok = ref true in
      while (not (Simulation.is_done sim)) && Simulation.time sim < cap do
        Simulation.step sim;
        let now = Simulation.informed_count sim in
        if now < !prev then ok := false;
        prev := now;
        let p = Simulation.present_count sim in
        if p < 0 || p > 6 then ok := false
      done;
      !ok)

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "validate" `Quick test_plan_validate;
          Alcotest.test_case "json errors" `Quick test_plan_json_errors;
          Alcotest.test_case "max agent id" `Quick test_plan_max_agent;
        ] );
      ( "plan-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_generated_plans_validate; prop_plan_roundtrip ]
        @ [
            QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 22 |])
              prop_mutated_plans_diagnosed;
          ] );
      ( "invariants",
        [
          Alcotest.test_case "monotone fault-free" `Quick
            test_monotone_fault_free;
          Alcotest.test_case "monotone under loss" `Quick
            test_monotone_loss_only;
          Alcotest.test_case "outage freezes informed" `Quick
            test_outage_freezes_informed;
          Alcotest.test_case "churn conserves agents" `Quick
            test_churn_conservation;
          Alcotest.test_case "no churn, all present" `Quick
            test_no_churn_all_present;
          Alcotest.test_case "silent source never spreads" `Quick
            test_silent_source_never_spreads;
          Alcotest.test_case "deaf agent never learns" `Quick
            test_deaf_agent_never_learns;
          Alcotest.test_case "replay is identical" `Quick
            test_replay_identical;
          Alcotest.test_case "roles need broadcast" `Quick
            test_roles_need_broadcast;
          Alcotest.test_case "pinned fault runs" `Quick test_pinned_fault_runs;
          Alcotest.test_case "pinned fault runs at radius 2" `Quick
            test_pinned_radius2_fault_runs;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_masked_flood_matches_components; prop_random_plan_invariants ]
      );
    ]
