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

(* ---- properties -------------------------------------------------------- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"to_string |> parse is the identity" ~count:200
    ast_arbitrary (fun ast ->
      match Compile.parse (Ast.to_string ast) with
      | Error errs ->
          QCheck.Test.fail_reportf "canonical form does not re-parse: %s"
            (String.concat "; " errs)
      | Ok ast' -> Ast.equal ast ast')

let prop_hash_spelling_invariant =
  (* field order, omitted defaults, scalar-vs-singleton axes and the
     cosmetic name must not move the hash *)
  QCheck.Test.make ~name:"hash invariant under re-spelling" ~count:200
    ast_arbitrary (fun ast ->
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
       trials, max_steps, faults)";
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
    (List.nth errs 1)

let test_diag_semantic_position () =
  check_diags "semantic check anchored at the field value"
    "{\n  \"trials\": 0\n}"
    [ "sc.json:2:13: scenario: trials must be >= 1" ]

let test_diag_faults_position () =
  check_diags "fault-plan diagnostics keep file positions"
    "{\n  \"faults\": {\n    \"loss_p\": 2.0\n  }\n}"
    [ "sc.json:3:15: loss_p must lie in [0, 1]" ]

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
  ignore
    (compile_exn
       {|{"side": 65536, "agents": 1, "radius": [0, 131072], "space": "domain"}|}
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
        ] );
      ( "compile",
        [
          Alcotest.test_case "minimal file" `Quick test_minimal_file;
          Alcotest.test_case "scalar = singleton axis" `Quick
            test_scalar_equals_singleton;
          Alcotest.test_case "desugared engine config" `Quick
            test_desugared_config;
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
          Alcotest.test_case "no filename" `Quick test_diag_no_filename;
          Alcotest.test_case "size limits" `Quick test_diag_size_limits;
        ] );
    ]
