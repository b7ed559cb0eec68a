(* Scenario compiler suite: parse/print round-trips, canonical-hash
   invariance and sensitivity, desugaring, and golden file:line:col
   diagnostics for malformed files. *)

module Ast = Scenario.Ast
module Compile = Scenario.Compile
module Protocol = Mobile_network.Protocol

let compile_exn ?filename text =
  match Compile.compile ?filename text with
  | Ok c -> c
  | Error errs -> Alcotest.failf "compile failed: %s" (String.concat "; " errs)

let errors_of ?filename text =
  match Compile.compile ?filename text with
  | Ok _ -> Alcotest.fail "expected diagnostics, compiled cleanly"
  | Error errs -> errs

(* ---- generators -------------------------------------------------------- *)

let protocol_gen =
  QCheck.Gen.oneofl
    [
      Protocol.Broadcast; Protocol.Gossip; Protocol.Frog;
      Protocol.Broadcast_cover; Protocol.Cover_walks;
      Protocol.Predator_prey { preys = 3 };
    ]

let kernel_gen =
  QCheck.Gen.oneofl [ Walk.Lazy_one_fifth; Walk.Simple; Walk.Lazy_half; Walk.Jump 2 ]

let axis_gen g = QCheck.Gen.(list_size (int_range 1 3) g)

let ast_gen =
  QCheck.Gen.(
    let* sides = axis_gen (int_range 8 32) in
    let* agents = axis_gen (int_range 1 16) in
    let* radii = axis_gen (int_range 0 2) in
    let* protocols = axis_gen protocol_gen in
    let* kernels = axis_gen kernel_gen in
    let* torus = bool in
    let* seed = int_range 0 1000 in
    let* trials = int_range 1 4 in
    let* exchange =
      oneofl
        [
          Mobile_network.Config.Flood_component;
          Mobile_network.Config.Single_hop;
        ]
    in
    let* name = oneofl [ ""; "sweep"; "demo run" ] in
    return
      {
        Ast.default with
        Ast.name;
        sides;
        agents;
        radii;
        protocols;
        kernels;
        exchange;
        torus;
        seed;
        trials;
      })

let ast_arbitrary = QCheck.make ~print:Ast.to_string ast_gen

(* Valid non-grid scenarios exercising the space-specific scalars: a
   domain with a floor plan, or a continuum box whose [density] and
   [rc_mult] (when set) replace the default side and radius. *)
let space_ast_gen =
  QCheck.Gen.(
    let* agents = axis_gen (int_range 1 16) in
    let* seed = int_range 0 1000 in
    let domain =
      let* sides = axis_gen (int_range 8 32) in
      let* plan =
        oneof
          [
            return Ast.Open;
            map (fun gap -> Ast.Wall { gap }) (int_range 1 9);
            map2
              (fun per_side door -> Ast.Rooms { per_side; door })
              (int_range 1 8) (int_range 1 3);
          ]
      in
      let* los_blocking = bool in
      return
        { Ast.default with Ast.space = Ast.Domain; sides; plan; los_blocking }
    in
    let continuum =
      let* density = opt (float_range 0.01 1.) in
      let* rc_mult = opt (float_range 0.1 3.) in
      let* sigma_frac = oneofl [ 0.25; 0.5; 1.0 ] in
      return
        {
          Ast.default with
          Ast.space = Ast.Continuum;
          density;
          rc_mult;
          sigma_frac;
        }
    in
    let* ast = oneof [ domain; continuum ] in
    return { ast with Ast.agents; seed })

(* the round-trip and re-spelling properties also range over the
   space-specific scalars *)
let any_ast_arbitrary =
  QCheck.make ~print:Ast.to_string QCheck.Gen.(oneof [ ast_gen; space_ast_gen ])

(* ---- properties -------------------------------------------------------- *)

(* field by field, not through the canonical form: that omits the
   space-specific fields at their defaults and the side and radius that
   density and rc_mult replace, so a field it forgot to render would go
   unseen. Variants compare by their injective string forms. *)
let ast_equal (a : Ast.t) (b : Ast.t) =
  let by to_string x y = String.equal (to_string x) (to_string y) in
  String.equal a.Ast.name b.Ast.name
  && by Ast.space_to_string a.Ast.space b.Ast.space
  && List.equal Int.equal a.Ast.sides b.Ast.sides
  && List.equal Int.equal a.Ast.agents b.Ast.agents
  && List.equal Int.equal a.Ast.radii b.Ast.radii
  && List.equal (by Ast.protocol_to_string) a.Ast.protocols b.Ast.protocols
  && List.equal (by Ast.kernel_to_string) a.Ast.kernels b.Ast.kernels
  && by Mobile_network.Config.exchange_to_string a.Ast.exchange b.Ast.exchange
  && Bool.equal a.Ast.torus b.Ast.torus
  && Int.equal a.Ast.seed b.Ast.seed
  && Int.equal a.Ast.trials b.Ast.trials
  && Option.equal Int.equal a.Ast.max_steps b.Ast.max_steps
  && by Faults.Plan.to_string a.Ast.faults b.Ast.faults
  && by Ast.plan_to_string a.Ast.plan b.Ast.plan
  && Bool.equal a.Ast.los_blocking b.Ast.los_blocking
  && Option.equal Float.equal a.Ast.density b.Ast.density
  && Option.equal Float.equal a.Ast.rc_mult b.Ast.rc_mult
  && Float.equal a.Ast.sigma_frac b.Ast.sigma_frac

let prop_roundtrip =
  QCheck.Test.make ~name:"to_string |> parse is the identity" ~count:200
    any_ast_arbitrary (fun ast ->
      match Compile.parse (Ast.to_string ast) with
      | Error errs ->
          QCheck.Test.fail_reportf "canonical form does not re-parse: %s"
            (String.concat "; " errs)
      | Ok ast' -> ast_equal ast ast')

let prop_hash_spelling_invariant =
  (* field order, omitted defaults, scalar-vs-singleton axes and the
     cosmetic name must not move the hash *)
  QCheck.Test.make ~name:"hash invariant under re-spelling" ~count:200
    any_ast_arbitrary (fun ast ->
      let canonical_hash = (compile_exn (Ast.to_string ast)).Compile.hash in
      let respelled =
        (* re-emit with reversed field order and the name changed *)
        match Obs.Json.parse (Ast.to_string ast) with
        | Ok (Obs.Json.Assoc fields) ->
            Obs.Json.to_string
              (Obs.Json.Assoc
                 (("name", Obs.Json.String "renamed")
                 :: List.rev
                      (List.filter
                         (fun (k, _) -> not (String.equal k "name"))
                         fields)))
        | Ok _ | Error _ -> Alcotest.fail "canonical form is not an object"
      in
      String.equal canonical_hash (compile_exn respelled).Compile.hash)

let prop_hash_semantic_sensitive =
  QCheck.Test.make ~name:"hash changes under a semantic edit" ~count:200
    ast_arbitrary (fun ast ->
      let h = Ast.hash ast in
      let bumped = { ast with Ast.seed = ast.Ast.seed + 1 } in
      let widened = { ast with Ast.sides = 7 :: ast.Ast.sides } in
      (not (String.equal h (Ast.hash bumped)))
      && not (String.equal h (Ast.hash widened)))

let prop_cells_product =
  QCheck.Test.make ~name:"cells = cross product of axes" ~count:100
    ast_arbitrary (fun ast ->
      List.length (Ast.cells ast)
      = List.length ast.Ast.sides * List.length ast.Ast.agents
        * List.length ast.Ast.radii * List.length ast.Ast.protocols
        * List.length ast.Ast.kernels)

let prop_cell_hash_ignores_seed_trials =
  QCheck.Test.make ~name:"cell hash independent of seed/trials" ~count:100
    ast_arbitrary (fun ast ->
      let cells a = List.map Ast.cell_hash (Ast.cells a) in
      cells ast
      = cells { ast with Ast.seed = ast.Ast.seed + 17; trials = ast.Ast.trials + 1 })

(* ---- defaults and minimal files ---------------------------------------- *)

let test_minimal_file () =
  let c = compile_exn "{}" in
  Alcotest.(check int) "one cell" 1 (List.length c.Compile.cells);
  Alcotest.(check int) "one run" 1 (Compile.total_runs c);
  Alcotest.(check string)
    "empty file hashes like the default AST" (Ast.hash Ast.default)
    c.Compile.hash

let test_scalar_equals_singleton () =
  let scalar = compile_exn {|{"side": 16, "agents": 8}|} in
  let list_ = compile_exn {|{"side": [16], "agents": [8]}|} in
  Alcotest.(check string)
    "scalar and singleton-list spell the same scenario" scalar.Compile.hash
    list_.Compile.hash

let test_desugared_config () =
  let c =
    compile_exn
      {|{"side": 16, "agents": 8, "radius": 1, "protocol": "gossip",
         "kernel": "jump:2", "exchange": "single-hop", "torus": true,
         "seed": 5, "max_steps": 99}|}
  in
  match c.Compile.cells with
  | [ cell ] ->
      let cfg = Ast.cell_config cell ~seed:c.Compile.seed ~trial:3 in
      let s = Mobile_network.Config.to_string cfg in
      List.iter
        (fun needle ->
          let contains =
            let nl = String.length needle and hl = String.length s in
            let rec go i =
              i + nl <= hl && (String.equal (String.sub s i nl) needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) (needle ^ " in " ^ s) true contains)
        [ "side=16"; "k=8"; "r=1"; "gossip"; "seed=5"; "trial=3" ]
  | cells -> Alcotest.failf "expected one cell, got %d" (List.length cells)

(* ---- pinned hashes ------------------------------------------------------ *)

(* Canonical hashes key the service's result cache and the benchmark's
   pinned digests, so a refactor of the AST or its canonical form must
   leave every existing cell's hash exactly as it was. Each row: a
   scenario file, its {!Ast.hash} and the {!Ast.cell_hash} of each
   desugared cell, in cell order. *)
let pinned_hashes =
  [
    ({|{}|}, "0d3bdc17a00aa5dd", [ "58f64845b3ffa1a8" ]);
    ( {|{"side": 24, "agents": 12, "radius": 1, "faults": {"loss_p": 0.3,
         "churn": {"leave_p": 0.05, "return_p": 0.5}}}|},
      "722af6760cd61198",
      [ "d480a84dae9d3525" ] );
    ( {|{"side": 16, "agents": 8, "protocol": "gossip", "torus": true,
         "max_steps": 500}|},
      "64774d042fc844d4",
      [ "22288bd9401d8c03" ] );
    ( {|{"space": "continuum", "side": 8, "agents": 16, "radius": 2}|},
      "8b0e67bf6750cb8b",
      [ "88026402b62305f2" ] );
    ( {|{"space": "domain", "side": 12, "agents": 6, "radius": 1, "seed": 2}|},
      "c786000e2e0f6b6a",
      [ "f9b6649ed9804cb1" ] );
    ( {|{"side": 48, "agents": 1152, "radius": 4, "kernel": "jump:4",
         "exchange": "single-hop"}|},
      "3f3b9e8a3f70c7f3",
      [ "da482eb96f398b5a" ] );
    ( {|{"side": [16, 32], "agents": [8, 16], "seed": 7, "trials": 3}|},
      "133a1ac498ba37dc",
      [
        "aec58b093c72f2ce"; "e05129f8cbf59b3f"; "323c70ca933ab7b8";
        "0980750fbb7a3319";
      ] );
  ]

let test_pinned_hashes () =
  List.iter
    (fun (text, hash, cell_hashes) ->
      let c = compile_exn text in
      Alcotest.(check string) ("hash of " ^ text) hash c.Compile.hash;
      Alcotest.(check (list string))
        ("cell hashes of " ^ text) cell_hashes
        (List.map Ast.cell_hash c.Compile.cells))
    pinned_hashes

(* ---- golden diagnostics ------------------------------------------------- *)

let check_diags name text expected =
  Alcotest.(check (list string)) name expected (errors_of ~filename:"sc.json" text)

let test_diag_parse_error () =
  check_diags "JSON syntax error carries position" "{\n  \"side\": 16,,\n}"
    [ "sc.json:2:14: scenario: JSON parse error: expected \", found ," ]

let test_diag_unknown_field () =
  check_diags "unknown field at its key" "{\n  \"sidee\": 16\n}"
    [
      "sc.json:2:3: scenario: unknown field \"sidee\" (expected one of: name, \
       space, side, agents, radius, protocol, kernel, exchange, torus, seed, \
       trials, max_steps, faults, plan, los_blocking, density, rc_mult, \
       sigma_frac)";
    ];
  let expected =
    "(expected one of: name, space, side, agents, radius, protocol, kernel, \
     exchange, torus, seed, trials, max_steps, faults, plan, los_blocking, \
     density, rc_mult, sigma_frac)"
  in
  check_diags "every unknown top-level key"
    {|{"sid": 16, "agent": 2, "seed": 1}|}
    [
      "sc.json:1:2: scenario: unknown field \"sid\" " ^ expected;
      "sc.json:1:13: scenario: unknown field \"agent\" " ^ expected;
    ];
  (* a fault plan stops at its first problem, reported at the key *)
  check_diags "unknown fault-plan key" {|{"faults": {"loss": 0.1}}|}
    [
      "sc.json:1:13: faults: unknown field \"loss\" in fault plan (expected: \
       loss_p, outage, windows, churn, silent, deaf)";
    ];
  check_diags "unknown outage key"
    {|{"faults": {"outage": {"off": 1, "period": 4, "phase": 2}}}|}
    [
      "sc.json:1:47: faults: unknown field \"phase\" in outage (expected: off, \
       period)";
    ];
  check_diags "unknown churn key"
    {|{"faults": {"churn": {"leave_p": 0.1, "rejoin_p": 0.5}}}|}
    [
      "sc.json:1:39: faults: unknown field \"rejoin_p\" in churn (expected: \
       leave_p, return_p)";
    ];
  check_diags "unknown windows key"
    {|{"faults": {"windows": [{"from": 1, "until": 2, "agnt": 0}]}}|}
    [
      "sc.json:1:49: faults: unknown field \"agnt\" in windows entry \
       (expected: from, until, agent)";
    ]

let test_diag_collects_all () =
  let errs =
    errors_of ~filename:"sc.json"
      "{\n\
      \  \"side\": \"wide\",\n\
      \  \"protocol\": \"gossipp\",\n\
      \  \"trials\": 0\n\
       }"
  in
  Alcotest.(check int) "three independent diagnostics" 3 (List.length errs);
  Alcotest.(check string) "first is the side type error"
    "sc.json:2:11: scenario: side must be an integer" (List.nth errs 0);
  Alcotest.(check string) "second is the protocol spelling"
    "sc.json:3:15: scenario: unknown protocol \"gossipp\" (expected broadcast, \
     gossip, frog, broadcast-cover, cover-walks or predator-prey:<preys>)"
    (List.nth errs 1);
  (* a wrong type at every field: one diagnostic each, at the value *)
  check_diags "wrong type at every field"
    "{\n\
    \  \"name\": 1,\n\
    \  \"space\": 2,\n\
    \  \"side\": \"16\",\n\
    \  \"agents\": true,\n\
    \  \"radius\": 1.5,\n\
    \  \"protocol\": 3,\n\
    \  \"kernel\": null,\n\
    \  \"exchange\": [\"flood\"],\n\
    \  \"torus\": \"yes\",\n\
    \  \"seed\": 1.5,\n\
    \  \"trials\": \"3\",\n\
    \  \"max_steps\": \"10\",\n\
    \  \"faults\": [],\n\
    \  \"plan\": 4,\n\
    \  \"los_blocking\": 1,\n\
    \  \"density\": \"x\",\n\
    \  \"rc_mult\": true,\n\
    \  \"sigma_frac\": \"half\"\n\
     }"
    [
      "sc.json:2:11: scenario: name must be a string";
      "sc.json:3:12: scenario: space must be a string";
      "sc.json:4:11: scenario: side must be an integer";
      "sc.json:5:13: scenario: agents must be an integer";
      "sc.json:6:13: scenario: radius must be an integer";
      "sc.json:7:15: scenario: protocol must be a string";
      "sc.json:8:13: scenario: kernel must be a string";
      "sc.json:9:15: scenario: exchange must be a string";
      "sc.json:10:12: scenario: torus must be a boolean";
      "sc.json:11:11: scenario: seed must be an integer";
      "sc.json:12:13: scenario: trials must be an integer";
      "sc.json:13:16: scenario: max_steps must be an integer or null";
      "sc.json:14:13: faults: fault plan must be an object";
      "sc.json:15:11: scenario: plan must be a string";
      "sc.json:16:19: scenario: los_blocking must be a boolean";
      "sc.json:17:14: scenario: density must be a number";
      "sc.json:18:14: scenario: rc_mult must be a number";
      "sc.json:19:17: scenario: sigma_frac must be a number";
    ];
  check_diags "wrong-typed list entries, each at its entry"
    "{\"side\": [16, \"x\", 32], \"agents\": [true, 2], \"radius\": [0, 1.5],\n\
    \ \"protocol\": [\"gossip\", 7], \"kernel\": [\"simple\", null]}"
    [
      "sc.json:1:15: scenario: side must be an integer";
      "sc.json:1:36: scenario: agents must be an integer";
      "sc.json:1:60: scenario: radius must be an integer";
      "sc.json:2:25: scenario: protocol must be a string";
      "sc.json:2:50: scenario: kernel must be a string";
    ];
  check_diags "empty axis beside a semantic error" {|{"side": [], "agents": 0}|}
    [
      "sc.json:1:10: scenario: side axis must not be empty";
      "sc.json:1:24: scenario: agents must be positive";
    ];
  check_diags "not an object" "[1, 2]"
    [ "sc.json:1:1: scenario: a scenario file must be a JSON object" ];
  check_diags "fault-plan and scenario errors together"
    {|{"faults": {"loss_p": "high"}, "seed": "x"}|}
    [
      "sc.json:1:23: faults: loss_p must be a number";
      "sc.json:1:40: scenario: seed must be an integer";
    ]

let test_diag_semantic_position () =
  check_diags "semantic check anchored at the field value"
    "{\n  \"trials\": 0\n}"
    [ "sc.json:2:13: scenario: trials must be >= 1" ]

let test_diag_faults_position () =
  check_diags "fault-plan diagnostics keep file positions"
    "{\n  \"faults\": {\n    \"loss_p\": 2.0\n  }\n}"
    [ "sc.json:3:15: loss_p must lie in [0, 1]" ];
  (* a missing required key is reported at the object that lacks it *)
  List.iter
    (fun (text, expected) -> check_diags text text [ expected ])
    [
      ( {|{"faults": {"outage": {"period": 4}}}|},
        "sc.json:1:23: faults: outage is missing 'off'" );
      ( {|{"faults": {"outage": {"off": 1}}}|},
        "sc.json:1:23: faults: outage is missing 'period'" );
      ( {|{"faults": {"windows": [{"until": 3}]}}|},
        "sc.json:1:25: faults: window is missing 'from'" );
      ( {|{"faults": {"windows": [{"from": 0}]}}|},
        "sc.json:1:25: faults: window is missing 'until'" );
      ( {|{"faults": {"churn": {"return_p": 0.5}}}|},
        "sc.json:1:22: faults: churn is missing 'leave_p'" );
    ]

let test_diag_non_grid () =
  let errs =
    errors_of ~filename:"sc.json"
      "{\n  \"space\": \"continuum\",\n  \"protocol\": \"gossip\"\n}"
  in
  Alcotest.(check int) "one diagnostic" 1 (List.length errs);
  Alcotest.(check string) "grid-only protocol flagged at its value"
    "sc.json:3:15: scenario: protocol is grid-only: --space continuum runs a \
     plain broadcast (as on the CLI)"
    (List.nth errs 0)

(* Each space-specific scalar belongs to one space; density and rc_mult
   replace side and radius, so a file may write only one of each pair. *)
let test_diag_space_fields () =
  check_diags "domain fields off the domain"
    "{\n  \"plan\": \"wall:2\",\n  \"los_blocking\": true\n}"
    [
      "sc.json:2:11: scenario: plan is domain-only: --space grid does not \
       take it";
      "sc.json:3:19: scenario: los_blocking is domain-only: --space grid \
       does not take it";
    ];
  check_diags "continuum fields off the continuum"
    {|{"space": "domain", "density": 1, "rc_mult": 0.5, "sigma_frac": 0.5}|}
    [
      "sc.json:1:32: scenario: density is continuum-only: --space domain \
       does not take it";
      "sc.json:1:46: scenario: rc_mult is continuum-only: --space domain \
       does not take it";
      "sc.json:1:65: scenario: sigma_frac is continuum-only: --space domain \
       does not take it";
    ];
  check_diags "density and side both written"
    {|{"space": "continuum", "side": 64, "density": 1}|}
    [ "sc.json:1:47: scenario: density replaces side: set one of them, not both" ];
  check_diags "rc_mult and radius both written"
    {|{"space": "continuum", "radius": 1, "rc_mult": 1}|}
    [
      "sc.json:1:48: scenario: rc_mult replaces radius: set one of them, not \
       both";
    ];
  (match
     Compile.compile_ast
       {
         Ast.default with
         Ast.space = Ast.Continuum;
         sides = [ 16 ];
         density = Some 1.;
       }
   with
  | Ok _ -> Alcotest.fail "AST with density and a moved side compiled"
  | Error errs ->
      Alcotest.(check (list string)) "AST built in code, no position"
        [ "scenario: density replaces side: set one of them, not both" ]
        errs);
  check_diags "malformed plan at its value" {|{"space": "domain", "plan": "wall:0"}|}
    [ "sc.json:1:29: scenario: wall:<gap> needs a positive integer gap" ];
  check_diags "more rooms than cells" {|{"space": "domain", "side": [8, 4], "plan": "rooms:6:1"}|}
    [ "sc.json:1:45: scenario: plan rooms:6:1 needs a side of at least 6" ];
  check_diags "density must be a number"
    {|{"space": "continuum", "density": "dense"}|}
    [ "sc.json:1:35: scenario: density must be a number" ];
  ignore
    (compile_exn
       {|{"space": "domain", "plan": "rooms:3:2", "los_blocking": true,
          "side": 24}|}
      : Compile.compiled);
  ignore
    (compile_exn
       {|{"space": "continuum", "density": 1, "rc_mult": 0.5,
          "sigma_frac": 0.5}|}
      : Compile.compiled)

let test_diag_no_filename () =
  match Compile.compile "{\"trials\": 0}" with
  | Ok _ -> Alcotest.fail "expected a diagnostic"
  | Error [ e ] ->
      Alcotest.(check string) "position without filename prefix"
        "1:12: scenario: trials must be >= 1" e
  | Error errs -> Alcotest.failf "expected one diagnostic, got %d" (List.length errs)

(* Sizes the engine cannot allocate are diagnosed at the value; each of
   these inputs once crashed a run (exit 125, or SIGSEGV for the radius
   on the flag path). The edge of every range still compiles. *)
let test_diag_size_limits () =
  check_diags "side beyond the largest grid"
    {|{"side": 3037000500, "agents": 2}|}
    [ "sc.json:1:10: scenario: side must be at most 65536" ];
  check_diags "agents beyond the largest population"
    "{\n  \"side\": 16,\n  \"agents\": 4611686018427387903\n}"
    [ "sc.json:3:13: scenario: agents must be at most 1073741824" ];
  check_diags "radius beyond any pair's distance"
    {|{"side": 16, "agents": 2, "radius": [1, 4611686018427387889]}|}
    [ "sc.json:1:37: scenario: radius must be at most 131072" ];
  (* the radius >= 1 bucket table must fit: reported at the radius,
     torus included (side 8193 at radius 2 has 4097 columns bounded,
     padded to 8192^2 slots, but 4096 on a torus) *)
  check_diags "bucket table beyond the index limit"
    "{\"side\": [64, 16384],\n \"agents\": 64,\n \"radius\": [4, 1]}"
    [
      "sc.json:3:12: scenario: side 16384 at radius 1 needs a spatial index \
       of 268435456 buckets; at most 16777216 fit (use a larger radius or a \
       smaller side)";
    ];
  check_diags "bounded side 8193 at radius 2"
    {|{"side": 8193, "agents": 4, "radius": 2}|}
    [
      "sc.json:1:39: scenario: side 8193 at radius 2 needs a spatial index \
       of 67108864 buckets; at most 16777216 fit (use a larger radius or a \
       smaller side)";
    ];
  (match
     Compile.compile {|{"side": 8193, "agents": 4, "radius": 2, "torus": true}|}
   with
  | Ok _ -> ()
  | Error errs ->
      Alcotest.failf "torus side 8193 at radius 2 rejected: %s"
        (String.concat "; " errs));
  check_diags "floor plan side 16384 at radius 1"
    {|{"space": "domain", "side": 16384, "agents": 4, "radius": 1}|}
    [
      "sc.json:1:59: scenario: side 16384 at radius 1 needs a spatial index \
       of 268435456 buckets; at most 16777216 fit (use a larger radius or a \
       smaller side)";
    ];
  (* a floor plan allocates per node: a side whose node count exceeds
     the slot bound once ran the process out of memory at radius 0; it
     is reported at the side *)
  check_diags "floor plan beyond the node bound"
    {|{"space": "domain", "side": [64, 16384], "agents": 4}|}
    [
      "sc.json:1:29: scenario: a floor plan of side 16384 has 268435456 \
       nodes; at most 16777216 fit (use a smaller side)";
    ];
  (match
     Compile.compile_ast
       {
         Ast.default with
         Ast.sides = [ 16 ];
         agents = [ 2 ];
         radii = [ max_int ];
       }
   with
  | Ok _ -> Alcotest.fail "flag-built AST with radius max_int compiled"
  | Error errs ->
      Alcotest.(check (list string)) "flag path, no position"
        [ "scenario: radius must be at most 131072" ] errs);
  (* the continuum's float inputs must be finite and positive, and the
     box, radius and Brownian step they derive must respect the same
     limits as the side and radius they replace *)
  check_diags "density too small: box beyond the largest side"
    {|{"space": "continuum", "agents": 8, "density": 1e-300}|}
    [
      "sc.json:1:48: scenario: density makes the box side 2.82843e+150 \
       (k=8); it must lie in [1, 65536]";
    ];
  check_diags "density too large: box below one unit"
    {|{"space": "continuum", "agents": 8, "density": 1e300}|}
    [
      "sc.json:1:48: scenario: density makes the box side 2.82843e-150 \
       (k=8); it must lie in [1, 65536]";
    ];
  check_diags "rc_mult beyond the largest radius"
    {|{"space": "continuum", "agents": 8, "rc_mult": 1e300}|}
    [
      "sc.json:1:48: scenario: rc_mult makes the radius 2.71152e+301 (k=8); \
       it must lie in [0, 131072]";
    ];
  check_diags "sigma_frac beyond the largest step"
    {|{"space": "continuum", "radius": 2, "sigma_frac": 1e300}|}
    [
      "sc.json:1:51: scenario: sigma_frac makes the Brownian step 2e+300 \
       (k=32); it must lie in (0, 131072]";
    ];
  check_diags "Brownian step underflowing to 0"
    {|{"space": "continuum", "rc_mult": 1e-170, "sigma_frac": 1e-170}|}
    [
      "sc.json:1:57: scenario: sigma_frac makes the Brownian step 0 (k=32); \
       it must lie in (0, 131072]";
    ];
  check_diags "non-positive and non-finite inputs"
    {|{"space": "continuum", "density": 0, "rc_mult": -1, "sigma_frac": 1e999}|}
    [
      "sc.json:1:35: scenario: density must be positive and finite";
      "sc.json:1:49: scenario: rc_mult must be positive and finite";
      "sc.json:1:67: scenario: sigma_frac must be positive and finite";
    ];
  (match
     Compile.compile_ast
       { Ast.default with Ast.space = Ast.Continuum; density = Some 1e-300 }
   with
  | Ok _ -> Alcotest.fail "flag-built AST with density 1e-300 compiled"
  | Error errs ->
      Alcotest.(check (list string)) "flag path density, no position"
        [
          "scenario: density makes the box side 5.65685e+150 (k=32); it must \
           lie in [1, 65536]";
        ]
        errs);
  ignore
    (compile_exn {|{"side": 65536, "agents": 1, "radius": [0, 131072]}|}
      : Compile.compiled);
  ignore
    (compile_exn
       {|{"side": 4096, "agents": 1, "radius": [0, 131072], "space": "domain"}|}
      : Compile.compiled);
  ignore
    (compile_exn {|{"space": "continuum", "agents": 1, "density": 1}|}
      : Compile.compiled);
  ignore
    (compile_exn {|{"side": 16, "agents": 1073741824, "protocol": "frog"}|}
      : Compile.compiled);
  match
    Compile.compile
      {|{"side": 16, "agents": 2, "protocol": "predator-prey:1073741823"}|}
  with
  | Ok _ -> Alcotest.fail "agents + preys beyond the limit compiled"
  | Error [ e ] ->
      Alcotest.(check bool) "per-cell population check" true
        (String.ends_with ~suffix:"must be at most 1073741824" e)
  | Error errs ->
      Alcotest.failf "expected one diagnostic, got %d" (List.length errs)

(* ---- malformed input never raises ----------------------------------------- *)

(* Every valid file above, and one writing every fault-plan field, as
   seeds for byte-level mutants. *)
let valid_files =
  List.map (fun (text, _, _) -> text) pinned_hashes
  @ [
      {|{"side": 16, "agents": 8, "radius": 1, "protocol": "gossip",
         "kernel": "jump:2", "exchange": "single-hop", "torus": true,
         "seed": 5, "max_steps": 99}|};
      {|{"space": "domain", "plan": "rooms:3:2", "los_blocking": true,
          "side": 24}|};
      {|{"space": "continuum", "density": 1, "rc_mult": 0.5,
          "sigma_frac": 0.5}|};
      {|{"name": "all faults", "kernel": ["simple", "jump:2"], "max_steps": null,
         "faults": {"loss_p": 0.1, "outage": {"off": 1, "period": 4},
                    "windows": [{"from": 1, "until": 5, "agent": 0}],
                    "churn": {"leave_p": 0.05, "return_p": 0.5},
                    "silent": [1], "deaf": [2]}}|};
    ]

let prop_mutants_diagnosed =
  QCheck.Test.make ~name:"mutated files never raise" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(oneofl valid_files >>= Qgen.mutate))
    (fun text ->
      match Compile.compile ~filename:"m.json" text with
      | Ok _ -> true
      | Error errs -> List.for_all (Qgen.has_position ~file:"m.json") errs)

let qtest t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "scenario"
    [
      ( "properties",
        [
          qtest prop_roundtrip;
          qtest prop_hash_spelling_invariant;
          qtest prop_hash_semantic_sensitive;
          qtest prop_cells_product;
          qtest prop_cell_hash_ignores_seed_trials;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 22 |])
            prop_mutants_diagnosed;
        ] );
      ( "compile",
        [
          Alcotest.test_case "minimal file" `Quick test_minimal_file;
          Alcotest.test_case "scalar = singleton axis" `Quick
            test_scalar_equals_singleton;
          Alcotest.test_case "desugared engine config" `Quick
            test_desugared_config;
          Alcotest.test_case "pinned hashes" `Quick test_pinned_hashes;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "parse error" `Quick test_diag_parse_error;
          Alcotest.test_case "unknown field" `Quick test_diag_unknown_field;
          Alcotest.test_case "collects all" `Quick test_diag_collects_all;
          Alcotest.test_case "semantic position" `Quick
            test_diag_semantic_position;
          Alcotest.test_case "fault-plan position" `Quick
            test_diag_faults_position;
          Alcotest.test_case "non-grid fields" `Quick test_diag_non_grid;
          Alcotest.test_case "space-specific fields" `Quick
            test_diag_space_fields;
          Alcotest.test_case "no filename" `Quick test_diag_no_filename;
          Alcotest.test_case "size limits" `Quick test_diag_size_limits;
        ] );
    ]
