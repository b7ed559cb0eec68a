(* Tests for the Rumor_set bitset. *)

module R = Mobile_network.Rumor_set

let test_create_empty () =
  let s = R.create ~capacity:10 in
  Alcotest.(check int) "capacity" 10 (R.capacity s);
  Alcotest.(check int) "cardinal" 0 (R.cardinal s);
  Alcotest.(check bool) "not full" false (R.is_full s);
  for i = 0 to 9 do
    Alcotest.(check bool) "no members" false (R.mem s i)
  done;
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Rumor_set.create: negative capacity") (fun () ->
      ignore (R.create ~capacity:(-1)))

let test_zero_capacity () =
  let s = R.create ~capacity:0 in
  Alcotest.(check bool) "empty set of nothing is full" true (R.is_full s);
  Alcotest.(check int) "cardinal" 0 (R.cardinal s)

let test_add_and_mem () =
  let s = R.create ~capacity:20 in
  Alcotest.(check int) "first add returns 1" 1 (R.add s 7);
  Alcotest.(check int) "repeat add returns 0" 0 (R.add s 7);
  Alcotest.(check bool) "member" true (R.mem s 7);
  Alcotest.(check bool) "non-member" false (R.mem s 8);
  Alcotest.(check int) "cardinal tracks" 1 (R.cardinal s);
  Alcotest.check_raises "out of range" (Invalid_argument "Rumor_set: id out of range")
    (fun () -> ignore (R.add s 20));
  Alcotest.check_raises "negative" (Invalid_argument "Rumor_set: id out of range")
    (fun () -> ignore (R.mem s (-1)))

let test_singleton () =
  let s = R.singleton ~capacity:5 3 in
  Alcotest.(check int) "cardinal" 1 (R.cardinal s);
  Alcotest.(check bool) "member" true (R.mem s 3)

let test_full () =
  let s = R.create ~capacity:9 in
  for i = 0 to 8 do
    ignore (R.add s i)
  done;
  Alcotest.(check bool) "full" true (R.is_full s);
  Alcotest.(check int) "cardinal" 9 (R.cardinal s)

let test_union_into () =
  let a = R.create ~capacity:16 and b = R.create ~capacity:16 in
  List.iter (fun i -> ignore (R.add a i)) [ 0; 3; 9; 15 ];
  List.iter (fun i -> ignore (R.add b i)) [ 3; 4; 15 ];
  let added = R.union_into ~src:a ~dst:b in
  Alcotest.(check int) "two new rumors" 2 added;
  Alcotest.(check int) "b cardinal" 5 (R.cardinal b);
  List.iter
    (fun i -> Alcotest.(check bool) "b has all" true (R.mem b i))
    [ 0; 3; 4; 9; 15 ];
  (* src unchanged *)
  Alcotest.(check int) "a unchanged" 4 (R.cardinal a);
  Alcotest.(check bool) "a lacks 4" false (R.mem a 4);
  (* idempotent *)
  Alcotest.(check int) "repeat union adds nothing" 0
    (R.union_into ~src:a ~dst:b)

let test_union_capacity_mismatch () =
  let a = R.create ~capacity:8 and b = R.create ~capacity:9 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Rumor_set.union_into: capacity mismatch") (fun () ->
      ignore (R.union_into ~src:a ~dst:b));
  Alcotest.check_raises "or_into"
    (Invalid_argument "Rumor_set.or_into: capacity mismatch") (fun () ->
      R.or_into ~src:a ~dst:b);
  Alcotest.check_raises "copy_into"
    (Invalid_argument "Rumor_set.copy_into: capacity mismatch") (fun () ->
      R.copy_into ~src:a ~dst:b);
  Alcotest.check_raises "assign_superset"
    (Invalid_argument "Rumor_set.assign_superset: capacity mismatch")
    (fun () -> ignore (R.assign_superset ~src:a ~dst:b))

let test_copy_independent () =
  let a = R.singleton ~capacity:4 1 in
  let b = R.copy a in
  ignore (R.add b 2);
  Alcotest.(check int) "copy gained" 2 (R.cardinal b);
  Alcotest.(check int) "original untouched" 1 (R.cardinal a);
  Alcotest.(check bool) "equality after copy diverges" false (R.equal a b)

let test_equal () =
  let a = R.create ~capacity:12 and b = R.create ~capacity:12 in
  Alcotest.(check bool) "both empty" true (R.equal a b);
  ignore (R.add a 5);
  Alcotest.(check bool) "differ" false (R.equal a b);
  ignore (R.add b 5);
  Alcotest.(check bool) "equal again" true (R.equal a b);
  let c = R.create ~capacity:13 in
  Alcotest.(check bool) "capacity mismatch unequal" false (R.equal a c)

let test_iter_order () =
  let s = R.create ~capacity:30 in
  List.iter (fun i -> ignore (R.add s i)) [ 17; 2; 29; 0 ];
  let seen = ref [] in
  R.iter s ~f:(fun i -> seen := i :: !seen);
  Alcotest.(check (list int)) "increasing order" [ 0; 2; 17; 29 ]
    (List.rev !seen)

(* --- allocation: the word loop keeps its int64 words unboxed --- *)

let words_per_call f =
  let n = 10_000 in
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let sink = ref 0

(* A fresh-bits union is repeated by resetting [dst] to [base] with
   [copy_into], so each call of the measured closure makes one union
   with fresh bits and no other work that allocates. *)
let test_union_allocates_nothing () =
  List.iter
    (fun capacity ->
      let src = R.create ~capacity and base = R.create ~capacity in
      List.iter
        (fun i -> ignore (R.add src i))
        [ 0; 5; 63; 64; capacity - 1 ];
      ignore (R.add base 1);
      let dst = R.copy base in
      let check name f =
        Alcotest.(check (float 0.))
          (Printf.sprintf "capacity %d, %s: minor words per call" capacity name)
          0. (words_per_call f)
      in
      check "fresh bits" (fun () ->
          R.copy_into ~src:base ~dst;
          sink := !sink + R.union_into ~src ~dst);
      check "no fresh bits" (fun () -> sink := !sink + R.union_into ~src ~dst);
      (* one component flood's primitives: seed, OR, recount, write back *)
      let member = R.copy base in
      check "flood primitives" (fun () ->
          R.copy_into ~src:base ~dst;
          R.or_into ~src ~dst;
          R.recount dst;
          sink := !sink + R.assign_superset ~src:dst ~dst:member;
          R.copy_into ~src:base ~dst:member))
    [ 65; 256 ]

(* --- qcheck: bitset behaves like a reference implementation (int sets) ---

   Capacities sit on and around the 64-bit word boundaries of the
   union loop; [Qgen.rumor_ids] leans towards each word's top bit. *)

let boundary_capacities = [ 0; 1; 7; 8; 9; 63; 64; 65; 127; 128; 129; 256; 257 ]

(* A capacity and [n] id lists over it. *)
let boundary_scripts n =
  let open QCheck.Gen in
  let gen =
    let* capacity = oneofl boundary_capacities in
    let* lists = list_repeat n (Qgen.rumor_ids capacity) in
    return (capacity, lists)
  in
  QCheck.make
    ~print:(fun (capacity, lists) ->
      Printf.sprintf "capacity %d: %s" capacity
        (String.concat " | "
           (List.map
              (fun l -> String.concat "," (List.map string_of_int l))
              lists)))
    gen

let of_list capacity ids =
  let s = R.create ~capacity in
  List.iter (fun i -> ignore (R.add s i)) ids;
  s

let prop_matches_reference =
  QCheck.Test.make ~name:"add/mem/cardinal match a reference set" ~count:300
    (boundary_scripts 1) (fun (capacity, lists) ->
      let adds = List.concat lists in
      let s = R.create ~capacity in
      let reference = Hashtbl.create 32 in
      List.iter
        (fun i ->
          let fresh = not (Hashtbl.mem reference i) in
          Hashtbl.replace reference i ();
          let added = R.add s i in
          assert ((added = 1) = fresh))
        adds;
      R.cardinal s = Hashtbl.length reference
      && List.for_all (fun i -> R.mem s i) adds)

let prop_union_cardinal =
  QCheck.Test.make ~name:"union cardinal = |a U b|" ~count:300
    (boundary_scripts 2) (fun (capacity, lists) ->
      match lists with
      | [ xs; ys ] ->
          let a = of_list capacity xs and b = of_list capacity ys in
          ignore (R.union_into ~src:a ~dst:b);
          let expected = List.sort_uniq compare (xs @ ys) in
          R.cardinal b = List.length expected
          && List.for_all (fun i -> R.mem b i) expected
      | _ -> false)

(* A chain of unions into one set: after each, [dst] is exactly the
   list union, the return value counts the fresh rumors, [src] is
   untouched, and [equal], [copy] and [iter] agree with a set built by
   [add] alone. *)
let prop_union_into_is_set_union =
  QCheck.Test.make
    ~name:"union_into behaves as the functional set union" ~count:300
    (boundary_scripts 4) (fun (capacity, lists) ->
      match lists with
      | [] -> false
      | first :: rest ->
          let dst = of_list capacity first in
          let all = List.init capacity (fun i -> i) in
          let step known xs =
            let src = of_list capacity xs in
            let before_dst = R.cardinal dst and before_src = R.cardinal src in
            let added = R.union_into ~src ~dst in
            let union = List.sort_uniq compare (known @ xs) in
            let by_add = of_list capacity union in
            let seen = ref [] in
            R.iter dst ~f:(fun i -> seen := i :: !seen);
            let ok =
              List.for_all (fun i -> R.mem dst i = List.mem i union) all
              && added = List.length union - before_dst
              && R.cardinal dst = List.length union
              && R.cardinal src = before_src
              && List.for_all (fun i -> R.mem src i = List.mem i xs) all
              && R.equal dst by_add
              && R.equal (R.copy dst) by_add
              && List.rev !seen = union
            in
            (ok, union)
          in
          let rec chain known = function
            | [] -> true
            | xs :: tl ->
                let ok, known = step known xs in
                ok && chain known tl
          in
          chain (List.sort_uniq compare first) rest)

(* A component flood over four members' sets: the first seeds an
   accumulator by [copy_into] (over a stale set), the rest are ORed in,
   one [recount]; then each member takes the accumulator by
   [assign_superset]. At each stage the sets and cardinals match the
   functional union, the sources are unchanged until written back, and
   each write-back returns the rumors its member gained. *)
let prop_flood_primitives =
  QCheck.Test.make ~name:"flood primitives = functional set union" ~count:300
    (boundary_scripts 5) (fun (capacity, lists) ->
      match lists with
      | stale :: (first :: rest as members) ->
          let all = List.init capacity Fun.id in
          let norm xs = List.sort_uniq compare xs in
          let is s xs =
            R.cardinal s = List.length (norm xs)
            && List.for_all (fun i -> R.mem s i = List.mem i xs) all
          in
          let sets = List.map (of_list capacity) members in
          let acc = of_list capacity stale in
          R.copy_into ~src:(List.hd sets) ~dst:acc;
          let seeded = is acc first in
          List.iter (fun src -> R.or_into ~src ~dst:acc) (List.tl sets);
          R.recount acc;
          let union = first @ List.concat rest in
          let summed = is acc union && List.for_all2 is sets members in
          let written =
            List.for_all2
              (fun xs dst ->
                let added = R.assign_superset ~src:acc ~dst in
                added = List.length (norm union) - List.length (norm xs)
                && is dst union
                && R.assign_superset ~src:acc ~dst = 0)
              members sets
          in
          seeded && summed && written
      | _ -> false)

let () =
  Alcotest.run "rumor_set"
    [
      ( "basics",
        [
          Alcotest.test_case "create" `Quick test_create_empty;
          Alcotest.test_case "zero capacity" `Quick test_zero_capacity;
          Alcotest.test_case "add and mem" `Quick test_add_and_mem;
          Alcotest.test_case "singleton" `Quick test_singleton;
          Alcotest.test_case "full set" `Quick test_full;
        ] );
      ( "unions",
        [
          Alcotest.test_case "union_into" `Quick test_union_into;
          Alcotest.test_case "capacity mismatch" `Quick
            test_union_capacity_mismatch;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "iter in order" `Quick test_iter_order;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "union_into allocates nothing" `Quick
            test_union_allocates_nothing;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_matches_reference; prop_union_cardinal;
            prop_union_into_is_set_union; prop_flood_primitives;
          ] );
    ]
