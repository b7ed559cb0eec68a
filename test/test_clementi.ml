(* Tests for the dense-regime baseline simulator (Clementi et al.). *)

module C = Baselines.Clementi
module E = Mobile_network.Engine

let cfg ?(side = 16) ?(agents = 64) ?(big_r = 2) ?(rho = 2) ?(seed = 0)
    ?(trial = 0) ?(max_steps = 50_000) () =
  { C.side; agents; big_r; rho; seed; trial; max_steps }

let completed (r : E.report) =
  match r.E.outcome with E.Completed -> true | E.Timed_out -> false

let test_completes_dense () =
  let r = C.broadcast (cfg ()) in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "all informed" 64 r.E.informed;
  Alcotest.(check bool) "fast in the dense regime" true (r.E.steps < 200)

let test_single_agent () =
  let r = C.broadcast (cfg ~agents:1 ()) in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "instant" 0 r.E.steps

let test_deterministic () =
  let a = C.broadcast (cfg ~seed:9 ~trial:3 ()) in
  let b = C.broadcast (cfg ~seed:9 ~trial:3 ()) in
  Alcotest.(check int) "same steps" a.E.steps b.E.steps

let test_trials_vary () =
  let steps trial = (C.broadcast (cfg ~trial ())).E.steps in
  let all = List.init 8 steps in
  Alcotest.(check bool) "trials differ" true
    (List.exists (fun s -> s <> List.hd all) (List.tl all))

let test_bigger_radius_faster () =
  let median big_r =
    let times = Array.init 9 (fun trial -> (C.broadcast (cfg ~big_r ~rho:big_r ~trial ())).E.steps) in
    Array.sort compare times;
    times.(4)
  in
  let t2 = median 2 and t8 = median 8 in
  Alcotest.(check bool)
    (Printf.sprintf "R=8 (%d) faster than R=2 (%d)" t8 t2)
    true (t8 <= t2)

let test_zero_radii () =
  (* R = 0: exchange only on exact cohabitation; rho = 0: nobody moves.
     Both zero: must time out unless all agents share the source node. *)
  let r = C.broadcast (cfg ~agents:8 ~big_r:0 ~rho:0 ~max_steps:50 ()) in
  match r.E.outcome with
  | E.Timed_out -> Alcotest.(check bool) "stuck" true (r.E.informed < 8)
  | E.Completed -> Alcotest.(check int) "degenerate" 8 r.E.informed

let test_one_hop_semantics () =
  (* with rho = 0 (frozen agents) and R large enough to chain the whole
     grid, the rumor still travels only R per step: a 3-agent chain at
     pairwise distance <= R but end-to-end > R needs 2 steps, not 1.
     Statistically: frozen agents + R = diameter finishes in one step
     after t0; R = 1 on a dense frozen population takes many steps. *)
  let fast = C.broadcast (cfg ~agents:32 ~big_r:30 ~rho:0 ()) in
  Alcotest.(check bool) "R = diameter: at most 1 step" true (fast.E.steps <= 1);
  let slow = C.broadcast (cfg ~agents:256 ~big_r:1 ~rho:0 ~max_steps:200 ()) in
  (* 256 agents on 256 nodes: the visibility graph at R=1 is w.h.p.
     connected-ish; one-hop spreading needs ~grid-diameter steps *)
  Alcotest.(check bool)
    (Printf.sprintf "R=1 takes many steps (%d)" slow.E.steps)
    true
    (slow.E.steps >= 5)

let test_validation () =
  Alcotest.check_raises "agents" (Invalid_argument "Clementi.broadcast: agents <= 0")
    (fun () -> ignore (C.broadcast (cfg ~agents:0 ())));
  Alcotest.check_raises "side" (Invalid_argument "Clementi.broadcast: side <= 0")
    (fun () -> ignore (C.broadcast (cfg ~side:0 ())));
  Alcotest.check_raises "radius"
    (Invalid_argument "Clementi.broadcast: negative radius") (fun () ->
      ignore (C.broadcast (cfg ~big_r:(-1) ())))

let prop_informed_bounded =
  QCheck.Test.make ~name:"informed count within [1, k]" ~count:100
    QCheck.(
      quad (int_range 4 16) (int_range 1 40) (int_range 0 5) small_int)
    (fun (side, agents, big_r, seed) ->
      let r =
        C.broadcast (cfg ~side ~agents ~big_r ~rho:big_r ~seed ~max_steps:200 ())
      in
      r.E.informed >= 1 && r.E.informed <= agents)

let prop_completed_means_all =
  QCheck.Test.make ~name:"completed implies everyone informed" ~count:100
    QCheck.(triple (int_range 4 12) (int_range 1 30) small_int)
    (fun (side, agents, seed) ->
      let r = C.broadcast (cfg ~side ~agents ~big_r:2 ~rho:2 ~seed ()) in
      match r.E.outcome with
      | E.Completed -> r.E.informed = agents
      | E.Timed_out -> true)

let () =
  Alcotest.run "clementi"
    [
      ( "baseline",
        [
          Alcotest.test_case "completes dense" `Quick test_completes_dense;
          Alcotest.test_case "single agent" `Quick test_single_agent;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "trials vary" `Quick test_trials_vary;
          Alcotest.test_case "bigger radius faster" `Slow
            test_bigger_radius_faster;
          Alcotest.test_case "zero radii" `Quick test_zero_radii;
          Alcotest.test_case "one-hop semantics" `Quick test_one_hop_semantics;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_informed_bounded; prop_completed_means_all ] );
    ]
