(* End-to-end reproduction tests: every experiment of the registry runs
   in quick mode and must (a) produce a well-formed result and (b) pass
   all of its own shape checks. A regression in the engine that breaks a
   theorem's predicted shape therefore fails `dune runtest`. *)

module Registry = Experiments.Registry
module Exp_result = Experiments.Exp_result
module Table = Experiments.Table

let well_formed (r : Exp_result.t) =
  Alcotest.(check bool) "id non-empty" true (String.length r.Exp_result.id > 0);
  Alcotest.(check bool) "title non-empty" true (String.length r.title > 0);
  Alcotest.(check bool) "claim non-empty" true (String.length r.claim > 0);
  Alcotest.(check bool) "has measurements" true (Table.row_count r.table > 0);
  Alcotest.(check bool) "has checks" true (r.checks <> []);
  (* rendering and CSV export must not raise *)
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Exp_result.render fmt r;
  Format.pp_print_flush fmt ();
  Alcotest.(check bool) "render non-empty" true (Buffer.length buf > 0);
  Alcotest.(check bool) "csv non-empty" true
    (String.length (Exp_result.to_csv r) > 0)

let experiment_case (entry : Registry.entry) =
  Alcotest.test_case
    (Printf.sprintf "%s: %s" entry.Registry.id entry.Registry.summary)
    `Slow
    (fun () ->
      let r = entry.Registry.run ~quick:true ~seed:0 () in
      Alcotest.(check string) "id matches registry" entry.Registry.id
        r.Exp_result.id;
      well_formed r;
      List.iter
        (fun (c : Exp_result.check) ->
          Alcotest.(check bool)
            (Printf.sprintf "[%s] %s: %s" r.Exp_result.id c.Exp_result.label
               c.Exp_result.detail)
            true c.Exp_result.passed)
        r.Exp_result.checks)

let test_quick_mode_deterministic () =
  (* same seed, same result tables *)
  let entry = Option.get (Registry.find "E1") in
  let a = entry.Registry.run ~quick:true ~seed:42 () in
  let b = entry.Registry.run ~quick:true ~seed:42 () in
  Alcotest.(check string) "identical CSV" (Exp_result.to_csv a)
    (Exp_result.to_csv b)

let test_seed_changes_results () =
  let entry = Option.get (Registry.find "E1") in
  let a = entry.Registry.run ~quick:true ~seed:1 () in
  let b = entry.Registry.run ~quick:true ~seed:2 () in
  Alcotest.(check bool) "different seeds, different measurements" true
    (Exp_result.to_csv a <> Exp_result.to_csv b)

(* MD5 of each walk experiment's CSV at quick mode, seed 0. These
   experiments draw through Walk's scalar primitives (advance, path,
   excursion_stats, hits_within, first_meeting) rather than the engine,
   so a change to those loops' draws shows here first. *)
let walk_pins =
  [
    ("L1", "1ed84049ed1506ee51a7da2929093c73");
    ("L2", "8a4f985fa9a0107aa48d2fe3119f8cdd");
    ("L3", "11f01678aee90f768cfcf434c36a4476");
    ("L4", "cfb04cb2f151ca7b337438dfb54169ab");
    ("L5", "71929a933f0cf42b1c6f9a062c285602");
    ("X3", "00d1d251814e635317129b29751cb489");
    ("E4", "63b7ed7f409ae80bda97d51f72d76128");
  ]

let test_walk_experiment_pins () =
  List.iter
    (fun (id, digest) ->
      let entry = Option.get (Registry.find id) in
      let r = entry.Registry.run ~quick:true ~seed:0 () in
      Alcotest.(check string)
        (id ^ " CSV digest") digest
        (Digest.to_hex (Digest.string (Exp_result.to_csv r))))
    walk_pins

let test_ids_duplicate_free () =
  let ids = Registry.ids () in
  let sorted = List.sort_uniq compare ids in
  Alcotest.(check int)
    "no duplicate experiment ids" (List.length ids) (List.length sorted);
  (* lookup is case-insensitive, so ids must also be unique up to case *)
  let folded = List.sort_uniq compare (List.map String.uppercase_ascii ids) in
  Alcotest.(check int)
    "no ids colliding case-insensitively" (List.length ids)
    (List.length folded)

let () =
  Alcotest.run "experiments"
    [
      ("reproduction (quick mode)", List.map experiment_case Registry.all);
      ( "harness behaviour",
        [
          Alcotest.test_case "registry ids duplicate-free" `Quick
            test_ids_duplicate_free;
          Alcotest.test_case "deterministic given seed" `Slow
            test_quick_mode_deterministic;
          Alcotest.test_case "seed sensitivity" `Slow test_seed_changes_results;
          Alcotest.test_case "walk experiments pinned" `Slow
            test_walk_experiment_pins;
        ] );
    ]
