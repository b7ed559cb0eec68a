(* Tests for the stride-1 series capture that [simulate --trace-out]
   writes, and for [Engine.validate_series], the check that re-reads it.

   The load-bearing properties:
   - a capture carries the run-level meta the check reads (population,
     nodes, side, protocol, completed) and one row per step;
   - the NDJSON form and the combined JSON form parse to the same
     document, and malformed input is rejected;
   - every protocol's capture passes the check, timed-out runs included;
   - the check catches tampering, truncation and an inconsistent
     completed flag, and its message names the row. *)

module Series = Obs.Series
module Json = Obs.Json
module Config = Mobile_network.Config
module Engine = Mobile_network.Engine
module Simulation = Mobile_network.Simulation
module Protocol = Mobile_network.Protocol

(* --- stride-1 capture and the engine invariant check ------------------------ *)

(* What [simulate --trace-out] writes for a grid run: the run's series
   at stride 1, with the run-level meta the invariant check reads. *)
let capture ?(protocol = Protocol.Broadcast) ?(side = 12) ?(agents = 5)
    ?(seed = 0) ?max_steps () =
  let cfg = Config.make ~side ~agents ~protocol ~seed ?max_steps () in
  let sr = Series.create ~capacity:max_int ~columns:Engine.series_columns () in
  let r = Simulation.run_config ~series:sr cfg in
  let meta =
    [
      ("population", Json.Int (Protocol.population protocol ~k:agents));
      ("nodes", Json.Int (Config.n cfg));
      ("side", Json.Int side);
      ("protocol", Json.String (Protocol.to_string protocol));
      ( "completed",
        Json.Bool
          (match r.Simulation.outcome with
          | Simulation.Completed -> true
          | Simulation.Timed_out -> false) );
    ]
  in
  Series.export_string ~meta sr

let parsed text =
  match Series.parse text with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "capture rejected by Series.parse: %s" e

let check_doc doc =
  Result.bind
    (Result.map ignore (Series.parse (Json.to_string doc)))
    (fun () -> Engine.validate_series doc)

let member name doc =
  match Json.member name doc with
  | Some v -> v
  | None -> Alcotest.failf "missing %S" name

let data doc =
  match member "data" doc with
  | Json.List rows ->
      List.map
        (function
          | Json.List cells ->
              Array.of_list
                (List.map (function Json.Int v -> v | _ -> min_int) cells)
          | _ -> [||])
        rows
  | _ -> Alcotest.fail "data is not a list"

let cell_index doc name =
  match member "columns" doc with
  | Json.List cols ->
      let rec go i = function
        | [] -> Alcotest.failf "no column %S" name
        | Json.String c :: _ when String.equal c name -> i
        | _ :: tl -> go (i + 1) tl
      in
      go 0 cols
  | _ -> Alcotest.fail "columns is not a list"

(* Rebuild the document with new rows (and a matching "rows" count). *)
let with_rows doc rows =
  match doc with
  | Json.Assoc members ->
      Json.Assoc
        (List.map
           (function
             | "rows", _ -> ("rows", Json.Int (List.length rows))
             | "data", _ ->
                 ( "data",
                   Json.List
                     (List.map
                        (fun r ->
                          Json.List (List.map (fun v -> Json.Int v) (Array.to_list r)))
                        rows) )
             | kv -> kv)
           members)
  | _ -> Alcotest.fail "combined form is not an object"

let with_cell doc ~row ~col v =
  let c = cell_index doc col in
  with_rows doc
    (List.mapi
       (fun i r ->
         if i = row then begin
           let r = Array.copy r in
           r.(c) <- v;
           r
         end
         else r)
       (data doc))

let with_meta doc key v =
  match doc with
  | Json.Assoc members ->
      Json.Assoc
        (List.map
           (function
             | "meta", Json.Assoc m ->
                 ( "meta",
                   Json.Assoc
                     (List.map (fun (k, x) -> if String.equal k key then (k, v) else (k, x)) m) )
             | kv -> kv)
           members)
  | _ -> Alcotest.fail "combined form is not an object"

let test_capture_basics () =
  let doc = parsed (capture ()) in
  let meta = member "meta" doc in
  Alcotest.(check string) "population" "5"
    (Json.to_string (member "population" meta));
  Alcotest.(check string) "nodes" "144" (Json.to_string (member "nodes" meta));
  Alcotest.(check string) "protocol" "\"broadcast\""
    (Json.to_string (member "protocol" meta));
  Alcotest.(check string) "completed" "true"
    (Json.to_string (member "completed" meta));
  Alcotest.(check string) "stride 1" "1" (Json.to_string (member "stride" doc));
  let rows = data doc in
  Alcotest.(check bool) "has rows" true (List.length rows > 1);
  let last = List.nth rows (List.length rows - 1) in
  Alcotest.(check int) "all informed at the end" 5
    last.(cell_index doc "informed")

let test_capture_timeout () =
  let doc = parsed (capture ~side:24 ~agents:3 ~max_steps:2 ()) in
  Alcotest.(check string) "timed out" "false"
    (Json.to_string (member "completed" (member "meta" doc)));
  Alcotest.(check int) "rows = cap + 1" 3 (List.length (data doc))

let test_captured_series_validate () =
  List.iter
    (fun protocol ->
      match check_doc (parsed (capture ~protocol ())) with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "%s series failed validation: %s"
            (Protocol.to_string protocol)
            e)
    [ Protocol.Broadcast; Protocol.Gossip; Protocol.Frog;
      Protocol.Broadcast_cover; Protocol.Cover_walks;
      Protocol.Predator_prey { preys = 3 } ]

let test_roundtrip () =
  let text = capture ~seed:7 () in
  let doc = parsed text in
  Alcotest.(check string) "NDJSON and combined forms agree"
    (Json.to_string doc)
    (Json.to_string (parsed (Json.to_string doc)));
  Alcotest.(check bool) "revalidates" true
    (match check_doc doc with Ok () -> true | Error _ -> false)

let test_jsonl_shape () =
  let text = capture () in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  let doc = parsed text in
  Alcotest.(check int) "one line per row plus header"
    (List.length (data doc) + 1)
    (List.length lines);
  List.iteri
    (fun i l ->
      let first, last = if i = 0 then ('{', '}') else ('[', ']') in
      Alcotest.(check bool) "header object, then row arrays" true
        (String.length l > 1 && l.[0] = first && l.[String.length l - 1] = last))
    lines

let test_parse_errors () =
  let rejects label text =
    match Series.parse text with
    | Ok _ -> Alcotest.failf "%s accepted" label
    | Error _ -> ()
  in
  rejects "empty" "";
  rejects "junk" "not json\n";
  rejects "trailing garbage" (capture () ^ "garbage\n")

let test_validation_catches_tampering () =
  let doc = parsed (capture ~seed:3 ()) in
  let n = List.length (data doc) in
  let informed_col = cell_index doc "informed" in
  let broken label bad =
    match check_doc bad with
    | Ok () -> Alcotest.failf "%s not caught" label
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: message names the row (%s)" label e)
          true
          (String.length e > 4 && String.sub e 0 4 = "row ")
  in
  broken "informed decrease" (with_cell doc ~row:(n - 1) ~col:"informed" 0);
  broken "time gap"
    (with_rows doc (List.filteri (fun i _ -> i <> 1) (data doc)));
  broken "informed overflow" (with_cell doc ~row:0 ~col:"informed" 1000);
  broken "frontier out of grid" (with_cell doc ~row:0 ~col:"frontier" 999);
  (* flipping the completion flag must also be caught for broadcast *)
  broken "completion flip" (with_meta doc "completed" (Json.Bool false));
  (* truncation: dropping the tail leaves informed < population *)
  let truncated = with_rows doc (List.filteri (fun i _ -> i < 2) (data doc)) in
  Alcotest.(check bool) "truncated run did not finish" true
    ((List.nth (data truncated) 1).(informed_col) < 5);
  broken "truncation" truncated

(* The island columns: [components] in [1, population] (-1 only for
   predator–prey), and a largest island of s leaves at most
   population - s other sets. *)
let test_validation_catches_island_tampering () =
  let broken label bad =
    match check_doc bad with
    | Ok () -> Alcotest.failf "%s not caught" label
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: message names the row (%s)" label e)
          true
          (String.length e > 4 && String.sub e 0 4 = "row ")
  in
  let doc = parsed (capture ~seed:3 ()) in
  broken "no components" (with_cell doc ~row:0 ~col:"components" 0);
  broken "components over population"
    (with_cell doc ~row:0 ~col:"components" 6);
  broken "components -1 for broadcast"
    (with_cell doc ~row:0 ~col:"components" (-1));
  broken "island too large for the set count"
    (with_cell
       (with_cell doc ~row:0 ~col:"components" 5)
       ~row:0 ~col:"max_island" 2);
  let pp = parsed (capture ~protocol:(Protocol.Predator_prey { preys = 3 }) ()) in
  broken "components for predator-prey"
    (with_cell pp ~row:0 ~col:"components" 1)

let test_validate_accepts_timeout_series () =
  Alcotest.(check bool) "timeout series is valid" true
    (match check_doc (parsed (capture ~side:24 ~agents:3 ~max_steps:4 ())) with
    | Ok () -> true
    | Error _ -> false)

let small_config_arb = QCheck.(triple (int_range 4 12) (int_range 1 6) small_int)

let prop_roundtrip =
  QCheck.Test.make ~name:"capture -> jsonl -> parse roundtrips" ~count:40
    small_config_arb (fun (side, agents, seed) ->
      let text = capture ~side ~agents ~seed ~max_steps:200 () in
      match Series.parse text with
      | Ok doc -> (
          match Series.parse (Json.to_string doc) with
          | Ok doc' -> String.equal (Json.to_string doc) (Json.to_string doc')
          | Error _ -> false)
      | Error _ -> false)

let prop_captured_valid =
  QCheck.Test.make ~name:"every captured trace validates" ~count:40
    small_config_arb (fun (side, agents, seed) ->
      match Series.parse (capture ~side ~agents ~seed ~max_steps:200 ()) with
      | Ok doc -> Result.is_ok (check_doc doc)
      | Error _ -> false)

let () =
  Alcotest.run "capture"
    [
      ( "capture",
        [
          Alcotest.test_case "basics" `Quick test_capture_basics;
          Alcotest.test_case "timeout" `Quick test_capture_timeout;
          Alcotest.test_case "all protocols validate" `Quick
            test_captured_series_validate;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "jsonl shape" `Quick test_jsonl_shape;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ] );
      ( "validation",
        [
          Alcotest.test_case "catches tampering" `Quick
            test_validation_catches_tampering;
          Alcotest.test_case "accepts timeouts" `Quick
            test_validate_accepts_timeout_series;
          Alcotest.test_case "catches island tampering" `Quick
            test_validation_catches_island_tampering;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip; prop_captured_valid ] );
    ]
