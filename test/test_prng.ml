(* Unit and property tests for the Prng module. *)

let draws n f rng = Array.init n (fun _ -> f rng)

(* --- determinism and stream relationships --- *)

let test_same_seed_same_sequence () =
  let a = Prng.of_seed 42 and b = Prng.of_seed 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same output" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_different_seeds_differ () =
  let a = Prng.of_seed 1 and b = Prng.of_seed 2 in
  let da = draws 16 Prng.bits64 a and db = draws 16 Prng.bits64 b in
  Alcotest.(check bool) "sequences differ" true (da <> db)

let test_zero_seed_not_degenerate () =
  let rng = Prng.of_seed 0 in
  let outputs = draws 32 Prng.bits64 rng in
  Alcotest.(check bool) "not all zero" true
    (Array.exists (fun v -> v <> 0L) outputs);
  (* not all equal either *)
  Alcotest.(check bool) "not constant" true
    (Array.exists (fun v -> v <> outputs.(0)) outputs)

let test_copy_shares_future () =
  let a = Prng.of_seed 7 in
  ignore (draws 10 Prng.bits64 a);
  let b = Prng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copies agree" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_split_independent_of_parent () =
  let parent = Prng.of_seed 11 in
  let child = Prng.split parent in
  let p = draws 64 Prng.bits64 parent and c = draws 64 Prng.bits64 child in
  Alcotest.(check bool) "child differs from parent" true (p <> c)

let test_split_deterministic () =
  let mk () =
    let parent = Prng.of_seed 13 in
    let child = Prng.split parent in
    draws 16 Prng.bits64 child
  in
  Alcotest.(check bool) "same parent state, same child" true (mk () = mk ())

let test_fingerprint_does_not_advance () =
  let a = Prng.of_seed 3 in
  let fp1 = Prng.fingerprint a in
  let fp2 = Prng.fingerprint a in
  Alcotest.(check int64) "fingerprint is stable" fp1 fp2;
  let next = Prng.bits64 a in
  let b = Prng.of_seed 3 in
  Alcotest.(check int64) "stream unaffected" (Prng.bits64 b) next

(* --- bounded integers --- *)

let test_int_in_bounds () =
  let rng = Prng.of_seed 5 in
  List.iter
    (fun bound ->
      for _ = 1 to 1000 do
        let v = Prng.int rng bound in
        Alcotest.(check bool)
          (Printf.sprintf "0 <= %d < %d" v bound)
          true
          (v >= 0 && v < bound)
      done)
    [ 1; 2; 3; 7; 8; 100; 1 lsl 20 ]

let test_int_invalid () =
  let rng = Prng.of_seed 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0));
  Alcotest.check_raises "negative bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int rng (-3)))

let test_int_uniform () =
  let rng = Prng.of_seed 17 in
  let buckets = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let v = Prng.int rng 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  let expected = n / 8 in
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near uniform (%d)" i c)
        true
        (abs (c - expected) < expected / 10))
    buckets

let test_int_non_power_of_two_uniform () =
  (* the rejection path: modulo bias would overweight small residues *)
  let rng = Prng.of_seed 23 in
  let buckets = Array.make 5 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let v = Prng.int rng 5 in
    buckets.(v) <- buckets.(v) + 1
  done;
  let expected = n / 5 in
  Array.iter
    (fun c ->
      Alcotest.(check bool) "unbiased" true (abs (c - expected) < expected / 10))
    buckets

let test_int_incl () =
  let rng = Prng.of_seed 31 in
  let saw_lo = ref false and saw_hi = ref false in
  for _ = 1 to 2000 do
    let v = Prng.int_incl rng (-3) 3 in
    Alcotest.(check bool) "in range" true (v >= -3 && v <= 3);
    if v = -3 then saw_lo := true;
    if v = 3 then saw_hi := true
  done;
  Alcotest.(check bool) "lower endpoint reachable" true !saw_lo;
  Alcotest.(check bool) "upper endpoint reachable" true !saw_hi;
  Alcotest.(check int) "degenerate range" 9 (Prng.int_incl rng 9 9);
  Alcotest.check_raises "empty range" (Invalid_argument "Prng.int_incl: empty range")
    (fun () -> ignore (Prng.int_incl rng 2 1))

let test_bits30 () =
  let rng = Prng.of_seed 37 in
  for _ = 1 to 1000 do
    let v = Prng.bits30 rng in
    Alcotest.(check bool) "30-bit range" true (v >= 0 && v < 1 lsl 30)
  done

(* --- floats --- *)

let test_unit_float_range () =
  let rng = Prng.of_seed 41 in
  for _ = 1 to 10_000 do
    let v = Prng.unit_float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_unit_float_mean () =
  let rng = Prng.of_seed 43 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.unit_float rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f near 0.5" mean)
    true
    (Float.abs (mean -. 0.5) < 0.01)

let test_float_bounds () =
  let rng = Prng.of_seed 47 in
  for _ = 1 to 1000 do
    let v = Prng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0. && v < 2.5)
  done;
  Alcotest.check_raises "negative bound"
    (Invalid_argument "Prng.float: bound must be positive and finite")
    (fun () -> ignore (Prng.float rng (-1.)));
  Alcotest.check_raises "infinite bound"
    (Invalid_argument "Prng.float: bound must be positive and finite")
    (fun () -> ignore (Prng.float rng infinity))

(* --- distributions --- *)

let test_bernoulli_endpoints () =
  let rng = Prng.of_seed 53 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never true" false (Prng.bernoulli rng ~p:0.);
    Alcotest.(check bool) "p=1 always true" true (Prng.bernoulli rng ~p:1.)
  done;
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Prng.bernoulli: p not in [0,1]") (fun () ->
      ignore (Prng.bernoulli rng ~p:1.5))

let test_bernoulli_frequency () =
  let rng = Prng.of_seed 59 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Prng.bernoulli rng ~p:0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "freq %.3f near 0.3" freq)
    true
    (Float.abs (freq -. 0.3) < 0.01)

let test_geometric () =
  let rng = Prng.of_seed 61 in
  for _ = 1 to 100 do
    Alcotest.(check int) "p=1 is always 0" 0 (Prng.geometric rng ~p:1.)
  done;
  let n = 50_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    let v = Prng.geometric rng ~p:0.5 in
    Alcotest.(check bool) "non-negative" true (v >= 0);
    sum := !sum + v
  done;
  (* mean of failures-before-success at p = 1/2 is 1 *)
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near 1.0" mean)
    true
    (Float.abs (mean -. 1.0) < 0.05);
  Alcotest.check_raises "p = 0 rejected"
    (Invalid_argument "Prng.geometric: p not in (0,1]") (fun () ->
      ignore (Prng.geometric rng ~p:0.))

let test_exponential () =
  let rng = Prng.of_seed 67 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let v = Prng.exponential rng ~rate:2. in
    Alcotest.(check bool) "non-negative" true (v >= 0.);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.4f near 0.5" mean)
    true
    (Float.abs (mean -. 0.5) < 0.02)

let test_gaussian () =
  let rng = Prng.of_seed 71 in
  let n = 50_000 in
  let acc = Stats.Online.create () in
  for _ = 1 to n do
    Stats.Online.add acc (Prng.gaussian rng ~mean:3. ~stddev:2.)
  done;
  Alcotest.(check bool) "mean near 3" true
    (Float.abs (Stats.Online.mean acc -. 3.) < 0.05);
  Alcotest.(check bool) "stddev near 2" true
    (Float.abs (Stats.Online.stddev acc -. 2.) < 0.05)

(* --- array operations --- *)

let test_choose () =
  let rng = Prng.of_seed 73 in
  Alcotest.(check int) "singleton" 9 (Prng.choose rng [| 9 |]);
  let arr = [| 1; 2; 3 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (Array.mem (Prng.choose rng arr) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.choose: empty array")
    (fun () -> ignore (Prng.choose rng [||]))

let test_shuffle_permutation () =
  let rng = Prng.of_seed 79 in
  let arr = Array.init 50 (fun i -> i) in
  let original = Array.copy arr in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" original sorted

let test_shuffle_uniform_first () =
  (* first element after shuffling [0;1;2;3] should be near-uniform *)
  let rng = Prng.of_seed 83 in
  let counts = Array.make 4 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let arr = [| 0; 1; 2; 3 |] in
    Prng.shuffle rng arr;
    counts.(arr.(0)) <- counts.(arr.(0)) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "near uniform" true
        (abs (c - (n / 4)) < n / 40))
    counts

let test_sample_distinct () =
  let rng = Prng.of_seed 89 in
  let sample = Prng.sample_distinct rng ~m:10 ~bound:100 in
  Alcotest.(check int) "length" 10 (Array.length sample);
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "in bound" true (v >= 0 && v < 100);
      Alcotest.(check bool) "distinct" false (Hashtbl.mem seen v);
      Hashtbl.replace seen v ())
    sample;
  (* m = bound must return a permutation of the whole range *)
  let full = Prng.sample_distinct rng ~m:20 ~bound:20 in
  let sorted = Array.copy full in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "full range" (Array.init 20 (fun i -> i)) sorted;
  Alcotest.(check (array int)) "m = 0" [||]
    (Prng.sample_distinct rng ~m:0 ~bound:5);
  Alcotest.check_raises "m > bound"
    (Invalid_argument "Prng.sample_distinct: m exceeds bound") (fun () ->
      ignore (Prng.sample_distinct rng ~m:6 ~bound:5))

(* --- known answers ---

   The raw streams, pinned from the generator before its state moved
   into int64 stores: every golden and pinned digest in the repo rests
   on these sequences staying bit-identical. *)

let kat_bits64 =
  [
    ( "0",
      0,
      [ 0x99EC5F36CB75F2B4L; 0xBF6E1F784956452AL; 0x1A5F849D4933E6E0L;
        0x6AA594F1262D2D2CL; 0xBBA5AD4A1F842E59L; 0xFFEF8375D9EBCACAL;
        0x6C160DEED2F54C98L; 0x8920AD648FC30A3FL ] );
    ( "1",
      1,
      [ 0xB3F2AF6D0FC710C5L; 0x853B559647364CEAL; 0x92F89756082A4514L;
        0x642E1C7BC266A3A7L; 0xB27A48E29A233673L; 0x24C123126FFDA722L;
        0x123004EF8DF510E6L; 0x61954DCC47B1E89DL ] );
    ( "-1",
      -1,
      [ 0x8F5520D52A7EAD08L; 0xC476A018CAA1802DL; 0x81DE31C0D260469EL;
        0xBF658D7E065F3C2FL; 0x913593FDA1BCA32AL; 0xBB535E93941BA525L;
        0x5ECDA415C3C6DFDEL; 0xC487398FC9DE9AE2L ] );
    ( "max_int",
      max_int,
      [ 0x6A2DF487BD4ABDE8L; 0x7089A21212EAB9FCL; 0x81C431E01D397A88L;
        0x367A434D4B649925L; 0x3552CC64BFEA0899L; 0x10DFA2F3C87EBCD8L;
        0xBFEF86687180DE25L; 0xE6602B4C3A69EF87L ] );
    ( "min_int",
      min_int,
      [ 0x427D4A3696F6512EL; 0xCAAC0C9F8F82A2C1L; 0x1B7B0B2D8F27E48EL;
        0x55A3002D40F3CF72L; 0x4AE14B2E06733AD7L; 0x8D05BAA9ED5D6499L;
        0x5CF2765C268C5EF8L; 0xA82CF09331B27002L ] );
  ]

let test_kat_bits64 () =
  List.iter
    (fun (name, seed, expected) ->
      let rng = Prng.of_seed seed in
      List.iteri
        (fun i want ->
          Alcotest.(check int64)
            (Printf.sprintf "seed %s, draw %d" name i)
            want (Prng.bits64 rng))
        expected)
    kat_bits64

let check_floats name expected f =
  let rng = Prng.of_seed 7 in
  List.iteri
    (fun i want ->
      (* bit patterns, so a last-ulp change fails *)
      Alcotest.(check int64)
        (Printf.sprintf "%s draw %d" name i)
        (Int64.bits_of_float want)
        (Int64.bits_of_float (f rng)))
    expected

let test_kat_derived () =
  let rng = Prng.of_seed 7 in
  Alcotest.(check (list int))
    "int 5 at seed 7"
    [ 3; 3; 4; 1; 1; 0; 4; 4; 2; 4; 0; 4; 4; 2; 2; 0 ]
    (List.init 16 (fun _ -> Prng.int rng 5));
  check_floats "unit_float"
    [ 0x1.66b1f5ee9df2ep-1; 0x1.1d70f6593d20ap-2; 0x1.ade3a6932a58fp-1;
      0x1.f65270e63d00ep-1; 0x1.fb5209d8fca8p-1; 0x1.bedc39c76c431p-1;
      0x1.f1ae5852bd8bp-5; 0x1.abc4dcb546f6p-4 ]
    Prng.unit_float;
  check_floats "gaussian"
    [ -0x1.1db8771102afbp-2; 0x1.e6573bcb6ffe2p+0; 0x1.117279b9c2ee5p+1;
      0x1.1f4131d968bf5p-2; 0x1.2d3324419fe68p-1; -0x1.22da6f15a6984p-3;
      0x1.bb8852f76e4b4p+0; -0x1.04421023eae33p+0 ]
    (fun rng -> Prng.gaussian rng ~mean:0. ~stddev:1.)

(* bernoulli compares integers, not floats: it must still agree with
   [unit_float < p] draw for draw, at thresholds that sit exactly on,
   and one ulp either side of, a multiple of 2^-53 *)
let test_bernoulli_matches_unit_float () =
  let ps =
    [ 0.; 0.3; 0.5; 1.; 0x1p-53; Float.pred 0x1p-53; Float.succ 0x1p-53;
      Float.pred 1.; 5e-324; 0.02 ]
  in
  List.iter
    (fun p ->
      let a = Prng.of_seed 97 in
      let b = Prng.copy a in
      for i = 1 to 2000 do
        Alcotest.(check bool)
          (Printf.sprintf "p = %h, draw %d" p i)
          (Prng.unit_float b < p) (Prng.bernoulli a ~p)
      done)
    ps;
  (* a draw that lands exactly on the threshold is not below it *)
  let rng = Prng.of_seed 7 in
  let u = Prng.unit_float (Prng.copy rng) in
  Alcotest.(check bool) "u < u is false" false (Prng.bernoulli rng ~p:u);
  Alcotest.(check bool) "u < succ u" true
    (Prng.bernoulli (Prng.of_seed 7) ~p:(Float.succ u))

(* --- stores --- *)

let draws50 rng = List.init 50 (fun _ -> Prng.bits64 rng)

let test_split_n_matches_split () =
  List.iter
    (fun n ->
      let m1 = Prng.of_seed 101 and m2 = Prng.of_seed 101 in
      let bulk = Prng.split_n m1 n in
      let one_by_one = Array.init n (fun _ -> Prng.split m2) in
      Alcotest.(check int) (Printf.sprintf "n = %d: count" n) n
        (Array.length bulk);
      Alcotest.(check int64)
        (Printf.sprintf "n = %d: master left in the same state" n)
        (Prng.fingerprint m2) (Prng.fingerprint m1);
      (* draw stream by stream, in reverse, so a stream that reached a
         neighbour's slots would show *)
      for i = n - 1 downto 0 do
        Alcotest.(check (list int64))
          (Printf.sprintf "n = %d: stream %d" n i)
          (draws50 one_by_one.(i)) (draws50 bulk.(i))
      done)
    [ 0; 1; 2; 64; 1000 ];
  Alcotest.check_raises "negative count"
    (Invalid_argument "Prng.split_n: negative count") (fun () ->
      ignore (Prng.split_n (Prng.of_seed 1) (-1)))

let test_copy_of_view_independent () =
  let streams = Prng.split_n (Prng.of_seed 103) 3 in
  let mid = Prng.copy streams.(1) in
  let reference = Prng.copy streams.(1) in
  (* the neighbours move, and the original view moves: the copy must not *)
  ignore (draws50 streams.(0));
  ignore (draws50 streams.(2));
  ignore (draws50 streams.(1));
  let fp = Prng.fingerprint streams.(0) and fp2 = Prng.fingerprint streams.(2) in
  Alcotest.(check (list int64)) "copy kept the state it was taken at"
    (draws50 reference) (draws50 mid);
  (* and drawing from the copy left every view of the store alone *)
  Alcotest.(check int64) "left neighbour untouched" fp
    (Prng.fingerprint streams.(0));
  Alcotest.(check int64) "right neighbour untouched" fp2
    (Prng.fingerprint streams.(2))

(* --- allocation --- *)

(* Minor words per call of [f], over many calls. A float result that
   escapes into a boxed context would show as 2 words per call. *)
let words_per_call f =
  let n = 10_000 in
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let sink = ref 0

let test_draws_allocate_nothing () =
  let rng = Prng.of_seed 5 in
  let p = Sys.opaque_identity 0.3 in
  let check name f =
    Alcotest.(check (float 0.)) (name ^ ": minor words per call") 0.
      (words_per_call f)
  in
  check "int 5" (fun () -> sink := !sink + Prng.int rng 5);
  check "int 6" (fun () -> sink := !sink + Prng.int rng 6);
  check "bits30" (fun () -> sink := !sink + Prng.bits30 rng);
  check "bool" (fun () -> if Prng.bool rng then incr sink);
  check "bernoulli" (fun () -> if Prng.bernoulli rng ~p then incr sink);
  (* a float result crosses the call boxed, 2 words; nothing else may
     allocate (Box-Muller's two uniforms stay unboxed inside) *)
  let at_most_the_result name f =
    let w = words_per_call (fun () -> ignore (Sys.opaque_identity (f ()))) in
    if w > 2. then
      Alcotest.failf "%s allocates %.2f minor words per call (at most 2)" name w
  in
  at_most_the_result "unit_float" (fun () -> Prng.unit_float rng);
  at_most_the_result "gaussian" (fun () ->
      Prng.gaussian rng ~mean:0. ~stddev:p)

(* --- qcheck properties --- *)

let prop_int_in_range =
  QCheck.Test.make ~name:"int always within bound" ~count:1000
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Prng.of_seed seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

let prop_sample_distinct =
  QCheck.Test.make ~name:"sample_distinct yields distinct values" ~count:300
    QCheck.(pair small_int (int_range 1 200))
    (fun (seed, bound) ->
      let rng = Prng.of_seed seed in
      let m = min bound ((seed land 0xFF) mod (bound + 1)) in
      let sample = Prng.sample_distinct rng ~m ~bound in
      let unique = List.sort_uniq compare (Array.to_list sample) in
      List.length unique = m)

let prop_int_incl_endpoints =
  QCheck.Test.make ~name:"int_incl stays within closed range" ~count:1000
    QCheck.(triple small_int (int_range (-1000) 1000) (int_range 0 2000))
    (fun (seed, lo, span) ->
      let hi = lo + span in
      let rng = Prng.of_seed seed in
      let v = Prng.int_incl rng lo hi in
      v >= lo && v <= hi)

let () =
  Alcotest.run "prng"
    [
      ( "streams",
        [
          Alcotest.test_case "same seed, same sequence" `Quick
            test_same_seed_same_sequence;
          Alcotest.test_case "different seeds differ" `Quick
            test_different_seeds_differ;
          Alcotest.test_case "zero seed is fine" `Quick
            test_zero_seed_not_degenerate;
          Alcotest.test_case "copy shares future" `Quick test_copy_shares_future;
          Alcotest.test_case "split is independent" `Quick
            test_split_independent_of_parent;
          Alcotest.test_case "split is deterministic" `Quick
            test_split_deterministic;
          Alcotest.test_case "fingerprint side-effect free" `Quick
            test_fingerprint_does_not_advance;
        ] );
      ( "integers",
        [
          Alcotest.test_case "int in bounds" `Quick test_int_in_bounds;
          Alcotest.test_case "int rejects bad bounds" `Quick test_int_invalid;
          Alcotest.test_case "int uniform (pow2)" `Slow test_int_uniform;
          Alcotest.test_case "int uniform (non-pow2)" `Slow
            test_int_non_power_of_two_uniform;
          Alcotest.test_case "int_incl" `Quick test_int_incl;
          Alcotest.test_case "bits30" `Quick test_bits30;
        ] );
      ( "floats",
        [
          Alcotest.test_case "unit_float range" `Quick test_unit_float_range;
          Alcotest.test_case "unit_float mean" `Slow test_unit_float_mean;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "bernoulli endpoints" `Quick
            test_bernoulli_endpoints;
          Alcotest.test_case "bernoulli frequency" `Slow
            test_bernoulli_frequency;
          Alcotest.test_case "geometric" `Slow test_geometric;
          Alcotest.test_case "exponential" `Slow test_exponential;
          Alcotest.test_case "gaussian" `Slow test_gaussian;
        ] );
      ( "arrays",
        [
          Alcotest.test_case "choose" `Quick test_choose;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutation;
          Alcotest.test_case "shuffle uniform" `Slow test_shuffle_uniform_first;
          Alcotest.test_case "sample_distinct" `Quick test_sample_distinct;
        ] );
      ( "known answers",
        [
          Alcotest.test_case "bits64 at five seeds" `Quick test_kat_bits64;
          Alcotest.test_case "int, unit_float, gaussian at seed 7" `Quick
            test_kat_derived;
          Alcotest.test_case "bernoulli = unit_float < p" `Quick
            test_bernoulli_matches_unit_float;
        ] );
      ( "stores",
        [
          Alcotest.test_case "split_n = repeated split" `Quick
            test_split_n_matches_split;
          Alcotest.test_case "copy of a view is independent" `Quick
            test_copy_of_view_independent;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "draws allocate nothing" `Quick
            test_draws_allocate_nothing;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_int_in_range; prop_sample_distinct; prop_int_incl_endpoints ] );
    ]
