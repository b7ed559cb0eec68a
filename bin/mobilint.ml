(* mobilint — typed-AST determinism, concurrency, allocation-discipline
   and unsafe-access linter over the repo's own .cmt output. See README
   "Static analysis".

   Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

   Argument parsing is hand-rolled: the linter must stay free of
   external dependencies (compiler-libs ships with the compiler). *)

let usage () =
  print_string
    "usage: mobilint [OPTIONS] [CMT-FILE|DIR ...]\n\
     \n\
     Lints dune-emitted .cmt files (typed ASTs) and lib/*/dune layering.\n\
     With no paths, scans lib/ and bin/ under --root. Build the cmts\n\
     first: dune build @lib/check @bin/check (or make lint). Finding\n\
     zero cmt files is an error, not a clean scan.\n\
     \n\
     options:\n\
     \  --root DIR       build tree to scan (default _build/default)\n\
     \  --dune-root DIR  source tree for layering dune files (default .)\n\
     \  --rules LIST     comma-separated subset of: determinism,\n\
     \                   concurrency, poly-compare, layering, io,\n\
     \                   alloc, unsafe\n\
     \  --jobs N         scan cmt files over N pool workers (default:\n\
     \                   Runtime.Pool.recommended_jobs; output is\n\
     \                   byte-identical at any N)\n\
     \  --json FILE      also write the report as JSON ('-' = stdout)\n\
     \  --validate FILE  structurally check a --json report, then exit\n\
     \  --list-rules     print the rule tags and exit\n\
     \  --help           this text\n"

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("mobilint: " ^ s);
      exit 2)
    fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let () =
  let root = ref "_build/default" in
  let dune_root = ref "." in
  let rules = ref Lint.Finding.all_rules in
  let jobs = ref (Runtime.Pool.recommended_jobs ()) in
  let json_out = ref None in
  let paths = ref [] in
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | [] -> ()
    | "--help" :: _ | "-h" :: _ ->
        usage ();
        exit 0
    | "--list-rules" :: _ ->
        List.iter
          (fun r -> print_endline (Lint.Finding.rule_tag r))
          Lint.Finding.all_rules;
        exit 0
    | "--root" :: v :: rest ->
        root := v;
        parse rest
    | "--dune-root" :: v :: rest ->
        dune_root := v;
        parse rest
    | "--rules" :: v :: rest ->
        rules :=
          List.map
            (fun tag ->
              match Lint.Finding.rule_of_tag (String.trim tag) with
              | Some r -> r
              | None -> fail "unknown rule %S (try --list-rules)" tag)
            (String.split_on_char ',' v);
        parse rest
    | "--jobs" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n -> (
            match Runtime.Pool.check_jobs n with
            | Ok () -> jobs := n
            | Error e -> fail "--jobs %s" e)
        | None -> fail "--jobs wants a positive integer, got %S" v);
        parse rest
    | "--json" :: v :: rest ->
        json_out := Some v;
        parse rest
    | "--validate" :: v :: rest ->
        if rest <> [] then fail "--validate takes exactly one file";
        let doc =
          match Obs.Json.parse (read_file v) with
          | Ok doc -> doc
          | Error e -> fail "%s: %s" v e
          | exception Sys_error e -> fail "%s" e
        in
        (match Lint.Report.validate doc with
        | Ok () ->
            Printf.printf "%s: valid %s report\n" v Lint.Report.schema;
            exit 0
        | Error e ->
            Printf.eprintf "%s: invalid report: %s\n" v e;
            exit 1)
    | ("--root" | "--dune-root" | "--rules" | "--jobs" | "--json"
      | "--validate")
      :: [] ->
        fail "missing argument (try --help)"
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        fail "unknown option %s (try --help)" arg
    | arg :: rest ->
        paths := arg :: !paths;
        parse rest
  in
  parse (List.tl args);
  let explicit = List.rev !paths in
  let enabled r = List.mem r !rules in
  (* The whole cmt set is scanned as ONE tree — the alloc/unsafe passes
     resolve calls across files, so per-file scanning would miss
     hot-calls-cold edges between compilation units. *)
  let cmts =
    match explicit with
    | [] ->
        let cmts =
          Lint.Cmt_scan.tree_cmts ~root:!root ~subdirs:[ "lib"; "bin" ]
        in
        if cmts = [] then
          fail
            "no .cmt files under %s — build the typed ASTs first (dune \
             build @lib/check @bin/check, or make lint)"
            !root;
        cmts
    | ps ->
        List.concat_map
          (fun p ->
            if not (Sys.file_exists p) then fail "%s does not exist" p
            else if Sys.is_directory p then begin
              match Lint.Cmt_scan.find_cmts p with
              | [] -> fail "no .cmt files under %s" p
              | found -> found
            end
            else [ p ])
          ps
  in
  let cmt_findings =
    Lint.Cmt_scan.analyze (Lint.Cmt_scan.scan_files ~jobs:!jobs cmts)
  in
  let cmt_findings =
    List.filter (fun f -> enabled f.Lint.Finding.rule) cmt_findings
  in
  let layering =
    (* With explicit cmt paths the caller is linting files, not the
       tree; layering still runs if asked for by name. *)
    if
      enabled Lint.Finding.Layering
      && (explicit = [] || List.mem Lint.Finding.Layering !rules
                           && List.length !rules = 1)
    then Lint.Layering.check ~dune_root:!dune_root
    else []
  in
  let findings = Lint.Report.sort (cmt_findings @ layering) in
  let json () =
    Obs.Json.to_string_pretty (Lint.Report.to_json ~root:!root findings)
  in
  (match !json_out with
  | Some "-" -> print_string (json ())
  | Some file ->
      let oc = open_out file in
      output_string oc (json ());
      output_char oc '\n';
      close_out oc;
      print_string (Lint.Report.to_text findings)
  | None -> print_string (Lint.Report.to_text findings));
  if findings = [] then begin
    if !json_out = None then
      Printf.printf "mobilint: clean (%d rule families)\n"
        (List.length !rules);
    exit 0
  end
  else begin
    Printf.eprintf "mobilint: %d finding(s)\n" (List.length findings);
    exit 1
  end
