(* Tests for the continuous-space (Peres et al.) Brownian model. *)

module C = Continuum
module E = Mobile_network.Engine

let cfg ?(box_side = 8.) ?(agents = 32) ?(radius = 1.) ?(sigma = 0.25)
    ?(seed = 0) ?(trial = 0) ?(max_steps = 200_000) () =
  { C.box_side; agents; radius; sigma; seed; trial; max_steps }

let completed (r : E.report) =
  match r.E.outcome with E.Completed -> true | E.Timed_out -> false

let test_critical_radius () =
  (* lambda = 1: rc = sqrt(1.436) *)
  let rc = C.critical_radius ~box_side:8. ~agents:64 in
  Alcotest.(check bool) "value" true (Float.abs (rc -. sqrt 1.436) < 1e-9);
  (* rc scales like 1/sqrt(lambda) *)
  let rc4 = C.critical_radius ~box_side:8. ~agents:256 in
  Alcotest.(check bool) "quadruple density halves rc" true
    (Float.abs (rc4 -. (rc /. 2.)) < 1e-9);
  Alcotest.check_raises "bad box"
    (Invalid_argument "Continuum.critical_radius: box <= 0") (fun () ->
      ignore (C.critical_radius ~box_side:0. ~agents:4))

let test_broadcast_completes () =
  let r = C.broadcast (cfg ()) in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "all informed" 32 r.E.informed

let test_single_agent () =
  let r = C.broadcast (cfg ~agents:1 ()) in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "instant" 0 r.E.steps

let test_deterministic () =
  let a = C.broadcast (cfg ~seed:4 ~trial:1 ()) in
  let b = C.broadcast (cfg ~seed:4 ~trial:1 ()) in
  Alcotest.(check int) "same steps" a.E.steps b.E.steps;
  Alcotest.(check int) "same informed" a.E.informed b.E.informed

let test_trials_vary () =
  let steps trial = (C.broadcast (cfg ~trial ())).E.steps in
  let all = List.init 6 steps in
  Alcotest.(check bool) "trials differ" true
    (List.exists (fun s -> s <> List.hd all) (List.tl all))

let test_huge_radius_instant () =
  (* radius covering the whole box: one component at t0 *)
  let r = C.broadcast (cfg ~radius:20. ()) in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "instant flood" 0 r.E.steps

let test_zero_radius_stalls () =
  (* measure-zero meeting probability: nothing ever happens *)
  let r = C.broadcast (cfg ~agents:4 ~radius:0. ~max_steps:100 ()) in
  Alcotest.(check bool) "timed out" false (completed r);
  Alcotest.(check int) "only the source knows" 1 r.E.informed

let test_validation () =
  Alcotest.check_raises "agents" (Invalid_argument "Continuum.broadcast: agents <= 0")
    (fun () -> ignore (C.broadcast (cfg ~agents:0 ())));
  Alcotest.check_raises "sigma" (Invalid_argument "Continuum.broadcast: sigma <= 0")
    (fun () -> ignore (C.broadcast (cfg ~sigma:0. ())));
  Alcotest.check_raises "radius"
    (Invalid_argument "Continuum.broadcast: negative radius") (fun () ->
      ignore (C.broadcast (cfg ~radius:(-1.) ())))

let test_giant_fraction_regimes () =
  let rng = Prng.of_seed 7 in
  let box_side = 16. and agents = 256 in
  let rc = C.critical_radius ~box_side ~agents in
  let sub =
    C.giant_fraction rng ~box_side ~agents ~radius:(0.4 *. rc) ~trials:10
  in
  let super =
    C.giant_fraction rng ~box_side ~agents ~radius:(2. *. rc) ~trials:10
  in
  Alcotest.(check bool) "fractions in range" true
    (sub >= 0. && sub <= 1. && super >= 0. && super <= 1.);
  Alcotest.(check bool)
    (Printf.sprintf "super (%.2f) >> sub (%.2f)" super sub)
    true
    (super > 3. *. sub)

let test_supercritical_is_fast () =
  let box_side = 16. and agents = 256 in
  let rc = C.critical_radius ~box_side ~agents in
  let fast =
    C.broadcast
      (cfg ~box_side ~agents ~radius:(1.5 *. rc) ~sigma:(rc /. 4.) ())
  in
  let slow =
    C.broadcast
      (cfg ~box_side ~agents ~radius:(0.4 *. rc) ~sigma:(rc /. 4.) ())
  in
  Alcotest.(check bool) "both complete" true (completed fast && completed slow);
  Alcotest.(check bool)
    (Printf.sprintf "supercritical (%d) much faster than subcritical (%d)"
       fast.E.steps slow.E.steps)
    true
    (slow.E.steps > 5 * max 1 fast.E.steps)

let prop_informed_bounded =
  QCheck.Test.make ~name:"informed within [1, k]" ~count:80
    QCheck.(triple (int_range 1 40) (int_range 0 200) small_int)
    (fun (agents, radius_pct, seed) ->
      let radius = float_of_int radius_pct /. 100. in
      let r =
        C.broadcast (cfg ~agents ~radius ~seed ~max_steps:300 ())
      in
      r.E.informed >= 1 && r.E.informed <= agents)

let prop_completed_means_all =
  QCheck.Test.make ~name:"completed implies everyone informed" ~count:80
    QCheck.(pair (int_range 1 30) small_int)
    (fun (agents, seed) ->
      let r = C.broadcast (cfg ~agents ~seed ()) in
      match r.E.outcome with
      | E.Completed -> r.E.informed = agents
      | E.Timed_out -> true)

let () =
  Alcotest.run "continuum"
    [
      ( "model",
        [
          Alcotest.test_case "critical radius" `Quick test_critical_radius;
          Alcotest.test_case "broadcast completes" `Quick
            test_broadcast_completes;
          Alcotest.test_case "single agent" `Quick test_single_agent;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "trials vary" `Quick test_trials_vary;
          Alcotest.test_case "huge radius instant" `Quick
            test_huge_radius_instant;
          Alcotest.test_case "zero radius stalls" `Quick
            test_zero_radius_stalls;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "percolation",
        [
          Alcotest.test_case "giant fraction regimes" `Slow
            test_giant_fraction_regimes;
          Alcotest.test_case "supercritical fast" `Slow
            test_supercritical_is_fast;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_informed_bounded; prop_completed_means_all ] );
    ]
