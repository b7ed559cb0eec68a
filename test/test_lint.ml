(* Golden-diagnostics suite for mobilint.

   Each fixture module under lint_fixtures/ must trigger exactly one
   rule (fx_clean none); the real codebase must come out clean; the
   CLI must exit 1 on findings and 0 on a clean scan; the --json
   report must satisfy its own structural validator; the layering DAG
   is exercised on synthetic inputs.

   Runs from _build/default/test, so fixture cmts live under
   lint_fixtures/.lint_fixtures.objs/byte and the source tree (for
   layering dune files) is the prefix of cwd before /_build/. *)

let fixture_cmt name =
  Filename.concat "lint_fixtures/.lint_fixtures.objs/byte" (name ^ ".cmt")

(* Source root: strip the /_build/... suffix from cwd (tests run in the
   build tree); fall back to cwd when run from the repo root. *)
let repo_root () =
  let cwd = Sys.getcwd () in
  let marker = Filename.dir_sep ^ "_build" ^ Filename.dir_sep in
  let rec find i =
    if i + String.length marker > String.length cwd then None
    else if String.sub cwd i (String.length marker) = marker then Some i
    else find (i + 1)
  in
  match find 0 with Some i -> String.sub cwd 0 i | None -> cwd

let rule_tag_of_findings = function
  | [ f ] -> Lint.Finding.rule_tag f.Lint.Finding.rule
  | l -> Printf.sprintf "<%d findings>" (List.length l)

(* fixture module -> the one rule tag it must trigger *)
let fixtures =
  [
    ("fx_det_random", "determinism");
    ("fx_det_random_alias", "determinism");
    ("fx_det_clock", "determinism");
    ("fx_det_hash", "determinism");
    ("fx_det_hash_iter", "determinism");
    ("fx_conc_spawn", "concurrency");
    ("fx_conc_dls", "concurrency");
    ("fx_conc_atomic", "concurrency");
    ("fx_conc_mutex", "concurrency");
    ("fx_cmp_float_sort", "poly-compare");
    ("fx_cmp_tuple", "poly-compare");
    ("fx_cmp_closure", "poly-compare");
    ("fx_io_socket", "io");
    ("fx_alloc_closure", "alloc");
    ("fx_alloc_tuple", "alloc");
    ("fx_alloc_boxed_float", "alloc");
    ("fx_alloc_partial", "alloc");
    ("fx_alloc_hot_propagation", "alloc");
    ("fx_alloc_ok_noreason", "alloc");
    ("fx_unsafe_unaudited", "unsafe");
    ("fx_unsafe_alias", "unsafe");
    ("fx_unsafe_no_invariant", "unsafe");
  ]

let test_fixture_diagnostics () =
  List.iter
    (fun (name, expected) ->
      let findings = Lint.Cmt_scan.scan_file (fixture_cmt name) in
      Alcotest.(check string)
        (name ^ " triggers exactly " ^ expected)
        expected
        (rule_tag_of_findings findings);
      let f = List.hd findings in
      Alcotest.(check string)
        (name ^ " finding names the fixture source")
        ("test/lint_fixtures/" ^ name ^ ".ml")
        f.Lint.Finding.file;
      Alcotest.(check bool)
        (name ^ " has a positive line") true
        (f.Lint.Finding.line > 0))
    fixtures

let test_clean_fixture () =
  List.iter
    (fun name ->
      Alcotest.(check int)
        (name ^ " has no findings")
        0
        (List.length (Lint.Cmt_scan.scan_file (fixture_cmt name))))
    [ "fx_clean"; "fx_alloc_ok"; "fx_unsafe_ok" ]

let test_clean_tree () =
  (* the real codebase after this PR's fixes: no typed-AST findings
     over lib/ and bin/, and no layering violations *)
  let cmt =
    Lint.Cmt_scan.scan_tree ~root:Filename.parent_dir_name
      ~subdirs:[ "lib"; "bin" ] ()
  in
  let layering = Lint.Layering.check ~dune_root:(repo_root ()) in
  let all = Lint.Report.sort (cmt @ layering) in
  Alcotest.(check (list string))
    "clean codebase" []
    (List.map Lint.Finding.to_string all)

(* ---- canary: every suppression annotation is load-bearing ------------- *)

let findings_in file rule findings =
  List.filter
    (fun f ->
      f.Lint.Finding.file = file
      && Lint.Finding.rule_tag f.Lint.Finding.rule = rule)
    findings

let contains_sub ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let test_canary_alloc_ok () =
  (* With [@alloc_ok] justifications ignored, the suppressed allocation
     sites resurface — i.e. deleting any one of them from a hot module
     would flip the real scan to exit 1. Intbuf.push (amortized growth)
     is the designated alloc canary. *)
  let findings =
    Lint.Cmt_scan.scan_tree ~respect_alloc_ok:false
      ~root:Filename.parent_dir_name ~subdirs:[ "lib" ] ()
  in
  Alcotest.(check bool)
    "disabling [@alloc_ok] resurfaces Intbuf.push's growth allocation" true
    (findings_in "lib/core/intbuf.ml" "alloc" findings <> [])

let test_canary_unsafe_invariant () =
  (* Same for [@unsafe_invariant]: Dsu's unchecked accesses are the
     designated unsafe canary. *)
  let findings =
    Lint.Cmt_scan.scan_tree ~respect_unsafe_invariants:false
      ~root:Filename.parent_dir_name ~subdirs:[ "lib" ] ()
  in
  Alcotest.(check bool)
    "disabling [@unsafe_invariant] resurfaces Dsu's unchecked accesses" true
    (findings_in "lib/dsu/dsu.ml" "unsafe" findings <> [])

(* ---- unused exports --------------------------------------------------- *)

(* The unused-export rule needs a set of units: interfaces (.cmti) and
   the implementations that may use them (.cmt). *)
let scan_units units =
  Lint.Cmt_scan.analyze
    (Lint.Cmt_scan.scan_files
       (List.concat_map
          (fun u ->
            let cmt = fixture_cmt u in
            if Sys.file_exists (cmt ^ "i") then [ cmt ^ "i"; cmt ] else [ cmt ])
          units))

let test_unused_export_fixture () =
  let findings =
    Lint.Report.sort (scan_units [ "fx_export_unused"; "fx_export_user" ])
  in
  let expected =
    [
      (4, "Fx_export_unused.nothing_uses is exported but no other unit");
      (7, "Fx_export_unused.used_inside is exported but only its own unit");
      (10, "stale [@@seam]: Fx_export_unused.seamed_but_used is referenced");
      (13, "[@@seam] on Fx_export_unused.seam_without_reason without a reason");
    ]
  in
  Alcotest.(check (list int))
    "one finding per case, at its val" (List.map fst expected)
    (List.map (fun f -> f.Lint.Finding.line) findings);
  List.iter2
    (fun (_, prefix) f ->
      Alcotest.(check string)
        "rule" "unused-export"
        (Lint.Finding.rule_tag f.Lint.Finding.rule);
      Alcotest.(check string)
        "file" "test/lint_fixtures/fx_export_unused.mli" f.Lint.Finding.file;
      Alcotest.(check bool)
        ("message starts " ^ prefix) true
        (String.starts_with ~prefix f.Lint.Finding.message))
    expected findings

let test_unused_export_clean () =
  Alcotest.(check (list string))
    "alias chain and functor argument count as uses" []
    (List.map Lint.Finding.to_string
       (scan_units
          [ "fx_export_ok"; "fx_export_ok_alias"; "fx_export_ok_user" ]));
  (* without the unit declaring the alias, the path through it resolves
     nowhere: the resolution is what keeps via_alias clean *)
  Alcotest.(check (list int))
    "without the alias unit, via_alias is unused" [ 4 ]
    (List.map
       (fun f -> f.Lint.Finding.line)
       (scan_units [ "fx_export_ok"; "fx_export_ok_user" ]))

(* Every [@@seam "..."] attribute in lib/, counted per interface from
   the source text (doc comments write the attribute escaped, or without
   a space before it). *)
let seams_in_lib () =
  let lib = Filename.concat (repo_root ()) "lib" in
  let count s =
    let needle = " [@@seam \"" in
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length s then acc
      else go (i + 1) (if String.sub s i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Sys.readdir lib |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun d ->
         let dir = Filename.concat lib d in
         if not (Sys.is_directory dir) then []
         else
           Sys.readdir dir |> Array.to_list |> List.sort String.compare
           |> List.filter_map (fun f ->
                  if not (Filename.check_suffix f ".mli") then None
                  else
                    let ic = open_in_bin (Filename.concat dir f) in
                    let s = really_input_string ic (in_channel_length ic) in
                    close_in ic;
                    match count s with
                    | 0 -> None
                    | c -> Some (Printf.sprintf "lib/%s/%s" d f, c)))

let test_canary_seam () =
  (* With seams ignored, the scan reports exactly the seamed values:
     every [@@seam] is load-bearing, and nothing else is unused. *)
  let findings =
    Lint.Cmt_scan.scan_tree ~respect_seams:false
      ~root:Filename.parent_dir_name ~subdirs:[ "lib"; "bin" ] ()
    |> List.filter (fun f ->
           Lint.Finding.rule_tag f.Lint.Finding.rule = "unused-export")
  in
  let per_file =
    List.fold_left
      (fun acc f ->
        let file = f.Lint.Finding.file in
        match List.assoc_opt file acc with
        | Some c -> (file, c + 1) :: List.remove_assoc file acc
        | None -> (file, 1) :: acc)
      [] findings
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let seams = seams_in_lib () in
  Alcotest.(check bool) "lib/ carries seams" true (seams <> []);
  (* the test-only surface stays small: a seam names an oracle, a pin or
     a user outside lib/ and bin/ *)
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 seams in
  Alcotest.(check bool)
    (Printf.sprintf "at most 40 seams in lib/ (found %d)" total)
    true (total <= 40);
  Alcotest.(check (list (pair string int)))
    "findings per interface = [@@seam]s per interface" seams per_file;
  List.iter
    (fun f ->
      Alcotest.(check bool)
        ("a seamed value is reported as unused: " ^ Lint.Finding.to_string f)
        true
        (contains_sub ~needle:" is exported but " f.Lint.Finding.message))
    findings

(* ---- parallel scan determinism ---------------------------------------- *)

let test_jobs_determinism () =
  let scan jobs =
    List.map Lint.Finding.to_string
      (Lint.Cmt_scan.scan_tree ~jobs ~respect_alloc_ok:false
         ~root:Filename.parent_dir_name ~subdirs:[ "lib"; "bin" ] ())
  in
  (* canary mode guarantees a non-trivial finding list to compare *)
  let sequential = scan 1 in
  Alcotest.(check bool) "canary scan is non-empty" true (sequential <> []);
  Alcotest.(check (list string))
    "4-worker scan is byte-identical to sequential" sequential (scan 4)

(* ---- CLI exit codes --------------------------------------------------- *)

let mobilint = Filename.concat ".." "bin/mobilint.exe"

let run_cli args =
  let out = Filename.temp_file "mobilint_out" ".txt" in
  let code = Sys.command (Printf.sprintf "%s %s > %s 2>&1" mobilint args out) in
  let ic = open_in_bin out in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, s)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let test_cli_exit_codes () =
  List.iter
    (fun (name, expected) ->
      let code, out = run_cli (fixture_cmt name) in
      Alcotest.(check int) (name ^ " exits 1") 1 code;
      Alcotest.(check bool)
        (name ^ " output carries [" ^ expected ^ "]")
        true
        (contains ~needle:("[" ^ expected ^ "]") out))
    fixtures;
  let code, _ = run_cli (fixture_cmt "fx_clean") in
  Alcotest.(check int) "clean fixture exits 0" 0 code

let test_cli_rules_filter () =
  let code, out =
    run_cli ("--rules concurrency " ^ fixture_cmt "fx_det_random")
  in
  Alcotest.(check int) "filtered rule exits 0" 0 code;
  Alcotest.(check bool)
    "no determinism finding under --rules concurrency" false
    (contains ~needle:"[determinism]" out)

let test_cli_zero_cmts_fails () =
  (* an unbuilt tree must fail loudly (exit 2), not pass as clean *)
  let code, out = run_cli "--root /nonexistent-mobilint-root" in
  Alcotest.(check int) "zero cmts exits 2" 2 code;
  Alcotest.(check bool)
    "error names the missing cmts" true
    (contains ~needle:"no .cmt files" out)

(* ---- JSON report ------------------------------------------------------ *)

let test_json_report_validates () =
  let json = Filename.temp_file "mobilint_report" ".json" in
  let code, _ =
    run_cli (Printf.sprintf "--json %s %s" json (fixture_cmt "fx_cmp_tuple"))
  in
  Alcotest.(check int) "findings still exit 1 with --json" 1 code;
  let ic = open_in_bin json in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let doc =
    match Obs.Json.parse s with
    | Ok d -> d
    | Error e -> Alcotest.failf "report does not parse: %s" e
  in
  (match Lint.Report.validate doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "report does not validate: %s" e);
  let code, out = run_cli ("--validate " ^ json) in
  Sys.remove json;
  Alcotest.(check int) "--validate accepts its own output" 0 code;
  Alcotest.(check bool)
    "--validate names the schema" true
    (contains ~needle:Lint.Report.schema out)

let test_json_validator_rejects () =
  let valid = Lint.Report.to_json ~root:"r" [] in
  (match Lint.Report.validate valid with
  | Ok () -> ()
  | Error e -> Alcotest.failf "empty report should validate: %s" e);
  let reject label doc =
    match Lint.Report.validate doc with
    | Ok () -> Alcotest.failf "%s should have been rejected" label
    | Error _ -> ()
  in
  reject "wrong schema"
    (Obs.Json.Assoc
       [
         ("schema", Obs.Json.String "metrics/1");
         ("root", Obs.Json.String "r");
         ("count", Obs.Json.Int 0);
         ("by_rule", Obs.Json.Assoc []);
         ("findings", Obs.Json.List []);
       ]);
  reject "count mismatch"
    (Obs.Json.Assoc
       [
         ("schema", Obs.Json.String Lint.Report.schema);
         ("root", Obs.Json.String "r");
         ("count", Obs.Json.Int 3);
         ("by_rule", Obs.Json.Assoc []);
         ("findings", Obs.Json.List []);
       ]);
  reject "unknown rule tag"
    (Obs.Json.Assoc
       [
         ("schema", Obs.Json.String Lint.Report.schema);
         ("root", Obs.Json.String "r");
         ("count", Obs.Json.Int 1);
         ("by_rule", Obs.Json.Assoc [ ("no-such-rule", Obs.Json.Int 1) ]);
         ( "findings",
           Obs.Json.List
             [
               Obs.Json.Assoc
                 [
                   ("file", Obs.Json.String "f.ml");
                   ("line", Obs.Json.Int 1);
                   ("col", Obs.Json.Int 0);
                   ("rule", Obs.Json.String "no-such-rule");
                   ("message", Obs.Json.String "m");
                 ];
             ] );
       ]);
  reject "non-int line"
    (Obs.Json.Assoc
       [
         ("schema", Obs.Json.String Lint.Report.schema);
         ("root", Obs.Json.String "r");
         ("count", Obs.Json.Int 1);
         ("by_rule", Obs.Json.Assoc [ ("determinism", Obs.Json.Int 1) ]);
         ( "findings",
           Obs.Json.List
             [
               Obs.Json.Assoc
                 [
                   ("file", Obs.Json.String "f.ml");
                   ("line", Obs.Json.String "one");
                   ("col", Obs.Json.Int 0);
                   ("rule", Obs.Json.String "determinism");
                   ("message", Obs.Json.String "m");
                 ];
             ] );
       ]);
  reject "not an object" (Obs.Json.List [])

(* ---- layering --------------------------------------------------------- *)

let with_fake_tree stanzas fn =
  let root = Filename.temp_file "mobilint_tree" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  Sys.mkdir (Filename.concat root "lib") 0o755;
  List.iter
    (fun (dir, contents) ->
      let d = Filename.concat (Filename.concat root "lib") dir in
      Sys.mkdir d 0o755;
      let oc = open_out (Filename.concat d "dune") in
      output_string oc contents;
      close_out oc)
    stanzas;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote root)))
    (fun () -> fn root)

let test_layering_violations () =
  with_fake_tree
    [
      (* a forbidden edge: core must never depend on the runtime *)
      ("core", "(library\n (name mobile_network)\n (libraries runtime))\n");
      (* a directory the DAG does not know *)
      ("mystery", "(library\n (name mystery)\n (libraries prng))\n");
      (* a name mismatch *)
      ("prng", "(library\n (name not_prng))\n")
    ]
    (fun root ->
      let findings = Lint.Report.sort (Lint.Layering.check ~dune_root:root) in
      Alcotest.(check int) "three layering findings" 3 (List.length findings);
      List.iter
        (fun f ->
          Alcotest.(check string)
            "rule is layering" "layering"
            (Lint.Finding.rule_tag f.Lint.Finding.rule))
        findings;
      let msgs = String.concat "\n" (List.map Lint.Finding.to_string findings) in
      Alcotest.(check bool)
        "forbidden edge reported" true
        (contains ~needle:"must not depend on runtime" msgs);
      Alcotest.(check bool)
        "unknown directory reported" true
        (contains ~needle:"not in the declared DAG" msgs);
      Alcotest.(check bool)
        "name mismatch reported" true
        (contains ~needle:"named not_prng" msgs))

let test_layering_accepts_declared_edges () =
  with_fake_tree
    [
      ("core",
       "(library\n (name mobile_network)\n (libraries obs prng grid dsu \
        spatial walk stats))\n");
      (* external deps are ignored even on strict layers *)
      ("prng", "(library\n (name prng)\n (libraries alcotest))\n")
    ]
    (fun root ->
      Alcotest.(check (list string))
        "declared edges and external libraries pass" []
        (List.map Lint.Finding.to_string (Lint.Layering.check ~dune_root:root)))

(* ---- report order ----------------------------------------------------- *)

let test_report_order_deterministic () =
  let f file line rule =
    Lint.Finding.make ~file ~line ~col:0 ~rule "m"
  in
  let a = f "lib/a.ml" 9 Lint.Finding.Determinism in
  let b = f "lib/a.ml" 3 Lint.Finding.Poly_compare in
  let c = f "bin/z.ml" 1 Lint.Finding.Concurrency in
  let sorted l = List.map Lint.Finding.to_string (Lint.Report.sort l) in
  Alcotest.(check (list string))
    "order independent of input order"
    (sorted [ a; b; c ])
    (sorted [ c; a; b ]);
  Alcotest.(check (list string))
    "duplicates collapse"
    (sorted [ a; b ])
    (sorted [ a; b; a ])

let () =
  Alcotest.run "lint"
    [
      ( "fixtures",
        [
          Alcotest.test_case "golden diagnostics" `Quick
            test_fixture_diagnostics;
          Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
          Alcotest.test_case "unused-export findings" `Quick
            test_unused_export_fixture;
          Alcotest.test_case "unused-export clean fixture" `Quick
            test_unused_export_clean;
        ] );
      ( "clean-tree",
        [ Alcotest.test_case "real codebase is clean" `Quick test_clean_tree ]
      );
      ( "canary",
        [
          Alcotest.test_case "[@alloc_ok] is load-bearing" `Quick
            test_canary_alloc_ok;
          Alcotest.test_case "[@unsafe_invariant] is load-bearing" `Quick
            test_canary_unsafe_invariant;
          Alcotest.test_case "[@@seam] is load-bearing" `Quick test_canary_seam;
          Alcotest.test_case "parallel scan determinism" `Quick
            test_jobs_determinism;
        ] );
      ( "cli",
        [
          Alcotest.test_case "exit codes per fixture" `Quick
            test_cli_exit_codes;
          Alcotest.test_case "--rules filter" `Quick test_cli_rules_filter;
          Alcotest.test_case "zero cmts fail loudly" `Quick
            test_cli_zero_cmts_fails;
        ] );
      ( "json",
        [
          Alcotest.test_case "--json validates" `Quick
            test_json_report_validates;
          Alcotest.test_case "validator rejection matrix" `Quick
            test_json_validator_rejects;
        ] );
      ( "layering",
        [
          Alcotest.test_case "violations" `Quick test_layering_violations;
          Alcotest.test_case "declared edges pass" `Quick
            test_layering_accepts_declared_edges;
        ] );
      ( "report",
        [
          Alcotest.test_case "deterministic order" `Quick
            test_report_order_deterministic;
        ] );
    ]
