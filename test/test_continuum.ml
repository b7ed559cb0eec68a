(* Tests for the continuous-space (Peres et al.) Brownian model. *)

module C = Continuum
module E = Mobile_network.Engine
module CE = E.Make (C.Space)
module P = Mobile_network.Percolation.Make (C.Space)

let critical_radius = Mobile_network.Theory.continuum_critical_radius

let broadcast ?(box_side = 8.) ?(agents = 32) ?(radius = 1.) ?(sigma = 0.25)
    ?(seed = 0) ?(trial = 0) ?(max_steps = 200_000) () =
  CE.run
    (CE.create
       ~space:(C.Space.create ~box_side ~radius ~sigma ~agents)
       (E.default_spec ~agents ~seed ~trial ~max_steps))

let completed (r : E.report) =
  match r.E.outcome with E.Completed -> true | E.Timed_out -> false

let test_critical_radius () =
  (* lambda = 1: rc = sqrt(1.436) *)
  let rc = critical_radius ~box_side:8. ~agents:64 in
  Alcotest.(check bool) "value" true (Float.abs (rc -. sqrt 1.436) < 1e-9);
  (* rc scales like 1/sqrt(lambda) *)
  let rc4 = critical_radius ~box_side:8. ~agents:256 in
  Alcotest.(check bool) "quadruple density halves rc" true
    (Float.abs (rc4 -. (rc /. 2.)) < 1e-9);
  Alcotest.check_raises "bad box"
    (Invalid_argument "Theory.continuum_critical_radius: box <= 0") (fun () ->
      ignore (critical_radius ~box_side:0. ~agents:4));
  Alcotest.check_raises "no agents"
    (Invalid_argument "Theory.continuum_critical_radius: agents <= 0")
    (fun () -> ignore (critical_radius ~box_side:8. ~agents:0))

let test_broadcast_completes () =
  let r = broadcast () in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "all informed" 32 r.E.informed

let test_single_agent () =
  let r = broadcast ~agents:1 () in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "instant" 0 r.E.steps

let test_deterministic () =
  let a = broadcast ~seed:4 ~trial:1 () in
  let b = broadcast ~seed:4 ~trial:1 () in
  Alcotest.(check int) "same steps" a.E.steps b.E.steps;
  Alcotest.(check int) "same informed" a.E.informed b.E.informed

let test_trials_vary () =
  let steps trial = (broadcast ~trial ()).E.steps in
  let all = List.init 6 steps in
  Alcotest.(check bool) "trials differ" true
    (List.exists (fun s -> s <> List.hd all) (List.tl all))

let test_huge_radius_instant () =
  (* radius covering the whole box: one component at t0 *)
  let r = broadcast ~radius:20. () in
  Alcotest.(check bool) "completed" true (completed r);
  Alcotest.(check int) "instant flood" 0 r.E.steps

let test_zero_radius_stalls () =
  (* measure-zero meeting probability: nothing ever happens *)
  let r = broadcast ~agents:4 ~radius:0. ~max_steps:100 () in
  Alcotest.(check bool) "timed out" false (completed r);
  Alcotest.(check int) "only the source knows" 1 r.E.informed

(* The space checks the box, radius, sigma and agent count; the engine
   the step cap. NaN fails every check, infinity the box's and sigma's
   (an infinite step would reflect off the walls forever). *)
let test_validation () =
  let raises label msg f =
    Alcotest.check_raises label (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  let space_msg what = "Continuum_space.create: " ^ what in
  raises "agents" (space_msg "agents <= 0") (broadcast ~agents:0);
  let sigma = space_msg "sigma must be positive and finite" in
  raises "sigma" sigma (broadcast ~sigma:0.);
  raises "infinite sigma" sigma (broadcast ~sigma:Float.infinity);
  raises "nan sigma" sigma (broadcast ~sigma:Float.nan);
  raises "radius" (space_msg "radius must be >= 0") (broadcast ~radius:(-1.));
  raises "nan radius" (space_msg "radius must be >= 0")
    (broadcast ~radius:Float.nan);
  let box = space_msg "box_side must be positive and finite" in
  raises "box" box (broadcast ~box_side:0.);
  raises "infinite box" box (broadcast ~box_side:Float.infinity);
  raises "nan box" box (broadcast ~box_side:Float.nan);
  raises "max_steps" "Engine.create: negative max_steps"
    (broadcast ~max_steps:(-1));
  let giant ?(agents = 32) ?(trials = 2) () =
    P.giant_fraction
      (C.Space.create ~box_side:8. ~radius:1. ~sigma:1. ~agents:32)
      (Prng.of_seed 1) ~agents ~trials
  in
  raises "giant agents" "Percolation.giant_fraction: agents <= 0"
    (giant ~agents:0);
  raises "giant trials" "Percolation.giant_fraction: trials <= 0"
    (giant ~trials:0)

let test_giant_fraction_regimes () =
  let rng = Prng.of_seed 7 in
  let box_side = 16. and agents = 256 in
  let rc = critical_radius ~box_side ~agents in
  let at mult =
    P.giant_fraction
      (C.Space.create ~box_side ~radius:(mult *. rc) ~sigma:1. ~agents)
      rng ~agents ~trials:10
  in
  let sub = at 0.4 in
  let super = at 2. in
  Alcotest.(check bool) "fractions in range" true
    (sub >= 0. && sub <= 1. && super >= 0. && super <= 1.);
  Alcotest.(check bool)
    (Printf.sprintf "super (%.2f) >> sub (%.2f)" super sub)
    true
    (super > 3. *. sub)

let test_supercritical_is_fast () =
  let box_side = 16. and agents = 256 in
  let rc = critical_radius ~box_side ~agents in
  let fast =
    broadcast ~box_side ~agents ~radius:(1.5 *. rc) ~sigma:(rc /. 4.) ()
  in
  let slow =
    broadcast ~box_side ~agents ~radius:(0.4 *. rc) ~sigma:(rc /. 4.) ()
  in
  Alcotest.(check bool) "both complete" true (completed fast && completed slow);
  Alcotest.(check bool)
    (Printf.sprintf "supercritical (%d) much faster than subcritical (%d)"
       fast.E.steps slow.E.steps)
    true
    (slow.E.steps > 5 * max 1 fast.E.steps)

(* The steady state's index phase: a rebuild through the grid's bucket
   table and the float scan, with an [f] allocated once, at the
   alloc-discipline probe's shape (k 256, box 16, r 1.2). *)
let pairs_seen = ref 0

let count_pair _ _ = incr pairs_seen

let test_index_allocates_nothing () =
  let module S = C.Space in
  let s = S.create ~box_side:16. ~radius:1.2 ~sigma:0.3 ~agents:256 in
  let pos = S.init_positions s (Prng.of_seed 3) ~n:256 in
  let step () =
    S.rebuild_index s pos;
    S.iter_close_pairs s ~f:count_pair
  in
  step ();
  pairs_seen := 0;
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    step ()
  done;
  let words = (Gc.minor_words () -. w0) /. 1_000. in
  Alcotest.(check bool) "visits pairs" true (!pairs_seen > 0);
  Alcotest.(check (float 0.)) "minor words per rebuild and scan" 0. words

(* Reflection into the box. Moves of any size land in [0, box_side]:
   sigma 1e12 on a box of side 1, and the sigma of
   [simulate --space continuum --side 1 --rc-mult 0.1 --sigma-frac 1e6].
   Moves of up to a few box widths keep the arithmetic of folding back
   one width at a time, bit for bit. *)
let rec fold_back l x =
  if x < 0. then fold_back l (-.x)
  else if x > l then fold_back l ((2. *. l) -. x)
  else x

let moved ~box_side ~sigma ~steps =
  let module S = C.Space in
  let agents = 8 in
  let s = S.create ~box_side ~radius:0.1 ~sigma ~agents in
  let pos = S.init_positions s (Prng.of_seed 5) ~n:agents in
  let rngs = Prng.split_n (Prng.of_seed 6) agents in
  List.init steps (fun _ ->
      S.move_all s pos rngs Mobile_network.Space.Mobile_all;
      (Array.copy pos.S.xs, Array.copy pos.S.ys))

let test_huge_sigma_stays_in_box () =
  List.iter
    (fun sigma ->
      List.iter
        (fun (xs, ys) ->
          Array.iter
            (fun c ->
              if not (c >= 0. && c <= 1.) then
                Alcotest.failf "sigma %g: coordinate %h outside [0, 1]" sigma c)
            (Array.append xs ys))
        (moved ~box_side:1. ~sigma ~steps:200))
    [ 1e12; 42367.; 3.5 ]

let test_small_moves_fold_as_before () =
  let box_side = 4. and sigma = 1.5 and agents = 8 in
  let init =
    C.Space.init_positions
      (C.Space.create ~box_side ~radius:0.1 ~sigma ~agents)
      (Prng.of_seed 5) ~n:agents
  in
  let rngs = Prng.split_n (Prng.of_seed 6) agents in
  let xs = Array.copy init.C.Space.xs and ys = Array.copy init.C.Space.ys in
  let move c i =
    fold_back box_side (c +. Prng.gaussian rngs.(i) ~mean:0. ~stddev:sigma)
  in
  List.iter
    (fun (xs', ys') ->
      for i = 0 to agents - 1 do
        xs.(i) <- move xs.(i) i;
        ys.(i) <- move ys.(i) i
      done;
      if
        not
          (Array.for_all2 Float.equal xs xs' && Array.for_all2 Float.equal ys ys')
      then Alcotest.fail "a move differs from folding back one width at a time")
    (moved ~box_side ~sigma ~steps:300)

let prop_informed_bounded =
  QCheck.Test.make ~name:"informed within [1, k]" ~count:80
    QCheck.(triple (int_range 1 40) (int_range 0 200) small_int)
    (fun (agents, radius_pct, seed) ->
      let radius = float_of_int radius_pct /. 100. in
      let r =
        broadcast ~agents ~radius ~seed ~max_steps:300 ()
      in
      r.E.informed >= 1 && r.E.informed <= agents)

let prop_completed_means_all =
  QCheck.Test.make ~name:"completed implies everyone informed" ~count:80
    QCheck.(pair (int_range 1 30) small_int)
    (fun (agents, seed) ->
      let r = broadcast ~agents ~seed () in
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
          Alcotest.test_case "index allocates nothing" `Quick
            test_index_allocates_nothing;
          Alcotest.test_case "huge sigma stays in the box" `Quick
            test_huge_sigma_stays_in_box;
          Alcotest.test_case "small moves fold as before" `Quick
            test_small_moves_fold_as_before;
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
