(* Unit and property tests for the Dsu (union-find) module. *)

let test_create () =
  let d = Dsu.create 5 in
  Alcotest.(check int) "length" 5 (Dsu.length d);
  Alcotest.(check int) "initial sets" 5 (Dsu.set_count d);
  for i = 0 to 4 do
    Alcotest.(check int) "own representative" i (Dsu.find d i);
    Alcotest.(check int) "singleton size" 1 (Dsu.set_size d i)
  done;
  Alcotest.check_raises "negative size"
    (Invalid_argument "Dsu.create: negative size") (fun () ->
      ignore (Dsu.create (-1)))

let test_empty () =
  let d = Dsu.create 0 in
  Alcotest.(check int) "no sets" 0 (Dsu.set_count d);
  Alcotest.(check int) "max set empty" 0 (Dsu.max_union_size d)

let test_union_basics () =
  let d = Dsu.create 6 in
  Alcotest.(check bool) "first union merges" true (Dsu.union d 0 1);
  Alcotest.(check bool) "repeat union no-op" false (Dsu.union d 0 1);
  Alcotest.(check bool) "same set" true (Dsu.same_set d 0 1);
  Alcotest.(check bool) "others unaffected" false (Dsu.same_set d 0 2);
  Alcotest.(check int) "set count" 5 (Dsu.set_count d);
  Alcotest.(check int) "merged size" 2 (Dsu.set_size d 0);
  Alcotest.(check int) "merged size via other" 2 (Dsu.set_size d 1)

let test_transitivity () =
  let d = Dsu.create 8 in
  ignore (Dsu.union d 0 1);
  ignore (Dsu.union d 2 3);
  ignore (Dsu.union d 1 2);
  Alcotest.(check bool) "0 ~ 3 by transitivity" true (Dsu.same_set d 0 3);
  Alcotest.(check int) "size 4" 4 (Dsu.set_size d 3);
  Alcotest.(check int) "5 sets remain" 5 (Dsu.set_count d)

let test_self_union () =
  let d = Dsu.create 3 in
  Alcotest.(check bool) "self union is no-op" false (Dsu.union d 1 1);
  Alcotest.(check int) "still singleton" 1 (Dsu.set_size d 1)

let test_out_of_range () =
  let d = Dsu.create 3 in
  Alcotest.check_raises "find out of range"
    (Invalid_argument "Dsu: element out of range") (fun () ->
      ignore (Dsu.find d 3));
  Alcotest.check_raises "union out of range"
    (Invalid_argument "Dsu: element out of range") (fun () ->
      ignore (Dsu.union d 0 (-1)))

let test_reset () =
  let d = Dsu.create 4 in
  ignore (Dsu.union d 0 1);
  ignore (Dsu.union d 2 3);
  Dsu.reset d;
  Alcotest.(check int) "back to singletons" 4 (Dsu.set_count d);
  for i = 0 to 3 do
    Alcotest.(check int) "own rep after reset" i (Dsu.find d i);
    Alcotest.(check int) "size 1 after reset" 1 (Dsu.set_size d i)
  done

let test_max_union_size () =
  let d = Dsu.create 10 in
  Alcotest.(check int) "all singletons" 1 (Dsu.max_union_size d);
  ignore (Dsu.union d 0 1);
  ignore (Dsu.union d 1 2);
  ignore (Dsu.union d 5 6);
  Alcotest.(check int) "largest is 3" 3 (Dsu.max_union_size d)

let test_groups () =
  let d = Dsu.create 5 in
  ignore (Dsu.union d 0 3);
  ignore (Dsu.union d 3 4);
  let groups = Dsu.groups d in
  let found = ref [] in
  Array.iter
    (fun members -> if members <> [] then found := members :: !found)
    groups;
  let sorted = List.sort compare !found in
  Alcotest.(check (list (list int))) "groups partition"
    [ [ 0; 3; 4 ]; [ 1 ]; [ 2 ] ]
    sorted

let test_iter_sets () =
  let d = Dsu.create 6 in
  ignore (Dsu.union d 1 2);
  ignore (Dsu.union d 4 5);
  let seen = ref [] in
  Dsu.iter_sets d ~f:(fun ~representative ~members ->
      Alcotest.(check bool) "rep is a member" true (List.mem representative members);
      seen := members @ !seen);
  let all = List.sort compare !seen in
  Alcotest.(check (list int)) "every element exactly once" [ 0; 1; 2; 3; 4; 5 ]
    all

let test_members_sorted () =
  let d = Dsu.create 7 in
  ignore (Dsu.union d 6 0);
  ignore (Dsu.union d 3 6);
  Dsu.iter_sets d ~f:(fun ~representative:_ ~members ->
      let sorted = List.sort compare members in
      Alcotest.(check (list int)) "members increasing" sorted members)

(* --- qcheck properties --- *)

(* Build a random union script and compare against a naive quadratic
   implementation. *)
let naive_components n unions =
  let comp = Array.init n (fun i -> i) in
  List.iter
    (fun (i, j) ->
      let ci = comp.(i) and cj = comp.(j) in
      if ci <> cj then
        Array.iteri (fun idx c -> if c = cj then comp.(idx) <- ci) comp)
    unions;
  comp

let unions_gen n = Qgen.unions n

let prop_matches_naive =
  let n = 12 in
  QCheck.Test.make ~name:"matches naive component computation" ~count:300
    (unions_gen n) (fun unions ->
      let d = Dsu.create n in
      List.iter (fun (i, j) -> ignore (Dsu.union d i j)) unions;
      let naive = naive_components n unions in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let same_naive = naive.(i) = naive.(j) in
          if Dsu.same_set d i j <> same_naive then ok := false
        done
      done;
      !ok)

let prop_set_count_invariant =
  let n = 15 in
  QCheck.Test.make ~name:"set_count = n - successful unions" ~count:300
    (unions_gen n) (fun unions ->
      let d = Dsu.create n in
      let merges =
        List.fold_left
          (fun acc (i, j) -> if Dsu.union d i j then acc + 1 else acc)
          0 unions
      in
      Dsu.set_count d = n - merges)

let prop_sizes_sum_to_n =
  let n = 15 in
  QCheck.Test.make ~name:"set sizes sum to n" ~count:300 (unions_gen n)
    (fun unions ->
      let d = Dsu.create n in
      List.iter (fun (i, j) -> ignore (Dsu.union d i j)) unions;
      let total = ref 0 in
      Dsu.iter_sets d ~f:(fun ~representative:_ ~members ->
          total := !total + List.length members);
      !total = n)

let prop_find_idempotent =
  let n = 15 in
  QCheck.Test.make ~name:"find is idempotent under path compression"
    ~count:300 (unions_gen n) (fun unions ->
      let d = Dsu.create n in
      List.iter (fun (i, j) -> ignore (Dsu.union d i j)) unions;
      let ok = ref true in
      for i = 0 to n - 1 do
        let r = Dsu.find d i in
        if Dsu.find d i <> r || Dsu.find d r <> r then ok := false
      done;
      !ok)

let prop_union_idempotent =
  let n = 15 in
  QCheck.Test.make ~name:"replaying a union script changes nothing"
    ~count:300 (unions_gen n) (fun unions ->
      let d = Dsu.create n in
      List.iter (fun (i, j) -> ignore (Dsu.union d i j)) unions;
      let count = Dsu.set_count d in
      (* every union of the script is now a no-op *)
      List.for_all (fun (i, j) -> not (Dsu.union d i j)) unions
      && Dsu.set_count d = count)

let prop_set_count_monotone =
  let n = 15 in
  QCheck.Test.make ~name:"component count never increases" ~count:300
    (unions_gen n) (fun unions ->
      let d = Dsu.create n in
      let ok = ref true in
      let prev = ref (Dsu.set_count d) in
      List.iter
        (fun (i, j) ->
          ignore (Dsu.union d i j);
          let now = Dsu.set_count d in
          if now > !prev then ok := false;
          prev := now)
        unions;
      !ok)

(* Epoch reuse: the O(1) reset must behave exactly like a fresh
   structure — no union from an earlier epoch may survive into a later
   one through the lazily healed entries. *)
let prop_epoch_reuse_no_stale =
  let n = 15 in
  QCheck.Test.make ~name:"reset epochs never leak earlier-epoch unions"
    ~count:300
    QCheck.(triple (unions_gen n) (unions_gen n) (unions_gen n))
    (fun (a, b, c) ->
      let reused = Dsu.create n in
      let ok = ref true in
      List.iter
        (fun script ->
          Dsu.reset reused;
          List.iter (fun (i, j) -> ignore (Dsu.union reused i j)) script;
          let fresh = Dsu.create n in
          List.iter (fun (i, j) -> ignore (Dsu.union fresh i j)) script;
          for i = 0 to n - 1 do
            if Dsu.set_size reused i <> Dsu.set_size fresh i then ok := false;
            for j = 0 to n - 1 do
              if Dsu.same_set reused i j <> Dsu.same_set fresh i j then
                ok := false
            done
          done;
          if Dsu.set_count reused <> Dsu.set_count fresh then ok := false)
        [ a; b; c ];
      !ok)

(* Whole-set dissolution (the reconcile contract): dissolving every
   member of one set leaves those members as singletons of the current
   epoch and every other set byte-for-byte intact. *)
let prop_dissolve_whole_set =
  let n = 12 in
  QCheck.Test.make
    ~name:"dissolving a whole set yields singletons, others intact"
    ~count:300
    QCheck.(pair (unions_gen n) (int_range 0 (n - 1)))
    (fun (script, x) ->
      let d = Dsu.create n in
      List.iter (fun (i, j) -> ignore (Dsu.union d i j)) script;
      let member = Array.init n (fun i -> Dsu.same_set d i x) in
      let before =
        Array.init n (fun i -> Array.init n (fun j -> Dsu.same_set d i j))
      in
      for i = 0 to n - 1 do
        if member.(i) then Dsu.dissolve d i
      done;
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let expect =
            if i = j then true
            else if member.(i) || member.(j) then false
            else before.(i).(j)
          in
          if Dsu.same_set d i j <> expect then ok := false
        done
      done;
      !ok)

(* --- the touched log --------------------------------------------------- *)

type op =
  | Union of int * int
  | Find of int
  | Set_size of int
  | Same_set of int * int
  | Dissolve_set of int  (* every member of the element's set *)
  | Groups
  | Reset

let op_gen n =
  let open QCheck.Gen in
  let e = int_range 0 (n - 1) in
  frequency
    [
      (6, map2 (fun i j -> Union (i, j)) e e);
      (2, map (fun i -> Find i) e);
      (2, map (fun i -> Set_size i) e);
      (1, map2 (fun i j -> Same_set (i, j)) e e);
      (2, map (fun i -> Dissolve_set i) e);
      (1, return Groups);
      (1, return Reset);
    ]

let ops_arb =
  QCheck.make
    ~print:(fun (n, ops) -> Printf.sprintf "n=%d, %d ops" n (List.length ops))
    QCheck.Gen.(
      int_range 1 16 >>= fun n ->
      map (fun ops -> (n, ops)) (list_size (int_range 0 60) (op_gen n)))

(* The root pass into fresh scratch: the touched log and each logged
   element's root, or -1 for a singleton. *)
let root_pass d =
  let n = Dsu.length d in
  let members = Array.make n (-2) and roots = Array.make n (-2) in
  let len = Dsu.touched_roots d ~members ~roots in
  (Array.sub members 0 len, Array.sub roots 0 len)

let touched_list d = Array.to_list (fst (root_pass d))

(* After every operation the log lists exactly the elements an operation
   has reached since the last reset (the model [stamped]: the stamping
   rule of dsu.ml, stated on the operations), each once; and every
   member of a non-singleton set is listed. The root pass gives a
   singleton -1, and two members of one non-trivial set one root inside
   that set. A naive component array tells [Dissolve_set] which members
   to dissolve, so dissolves always cover whole sets, as the contract
   requires. *)
let prop_touched_log =
  QCheck.Test.make ~name:"touched log = elements stamped this epoch"
    ~count:500 ops_arb (fun (n, ops) ->
      let d = Dsu.create n in
      let comp = Array.init n (fun i -> i) in
      let stamped = Array.make n false in
      let stamp i = stamped.(i) <- true in
      let ok = ref (Dsu.touched_count d = 0) in
      List.iter
        (fun op ->
          (match op with
          | Union (i, j) ->
              stamp i;
              stamp j;
              ignore (Dsu.union d i j);
              let ci = comp.(i) and cj = comp.(j) in
              Array.iteri (fun x c -> if c = cj then comp.(x) <- ci) comp
          | Find i ->
              stamp i;
              ignore (Dsu.find d i)
          | Set_size i ->
              stamp i;
              ignore (Dsu.set_size d i)
          | Same_set (i, j) ->
              stamp i;
              stamp j;
              ignore (Dsu.same_set d i j)
          | Dissolve_set i ->
              let c = comp.(i) in
              for x = 0 to n - 1 do
                if comp.(x) = c then begin
                  stamp x;
                  Dsu.dissolve d x;
                  comp.(x) <- x
                end
              done
          | Groups ->
              Array.fill stamped 0 n true;
              ignore (Dsu.groups d)
          | Reset ->
              Array.fill stamped 0 n false;
              Array.iteri (fun x _ -> comp.(x) <- x) comp;
              Dsu.reset d);
          let members, roots = root_pass d in
          let log = Array.to_list members in
          let size x =
            Array.fold_left (fun a c -> if c = comp.(x) then a + 1 else a) 0 comp
          in
          Array.iteri
            (fun u x ->
              let r = roots.(u) in
              if size x = 1 then (if r <> -1 then ok := false)
              else if r < 0 || r >= n || comp.(r) <> comp.(x) then ok := false
              else
                Array.iteri
                  (fun v y ->
                    if comp.(y) = comp.(x) && roots.(v) <> r then ok := false)
                  members)
            members;
          let sorted = List.sort_uniq Int.compare log in
          let expected =
            List.filter (fun x -> stamped.(x)) (List.init n Fun.id)
          in
          (* no duplicates, and exactly the stamped elements *)
          if
            List.length sorted <> List.length log
            || not (List.equal Int.equal sorted expected)
          then
            ok := false;
          (* every member of a non-singleton set is logged (the model's
             sets, so the check itself touches nothing) *)
          Array.iteri
            (fun x c ->
              let shared = ref false in
              Array.iteri (fun y c' -> if y <> x && c' = c then shared := true)
                comp;
              if !shared && not stamped.(x) then ok := false)
            comp)
        ops;
      !ok)

let test_touched_reset () =
  let d = Dsu.create 6 in
  Alcotest.(check int) "fresh structure logs nothing" 0 (Dsu.touched_count d);
  (* no reset yet: the first touches are logged too *)
  ignore (Dsu.union d 4 1);
  Alcotest.(check (list int)) "never-reset union logged" [ 4; 1 ]
    (touched_list d);
  ignore (Dsu.find d 1);
  ignore (Dsu.union d 1 4);
  Alcotest.(check int) "each element once" 2 (Dsu.touched_count d);
  Dsu.reset d;
  Alcotest.(check int) "reset empties the log" 0 (Dsu.touched_count d);
  Dsu.reset d;
  Alcotest.(check int) "repeated reset" 0 (Dsu.touched_count d);
  ignore (Dsu.set_size d 5);
  Dsu.dissolve d 5;
  Dsu.dissolve d 2;
  Alcotest.(check (list int)) "dissolve logs only unstamped elements" [ 5; 2 ]
    (touched_list d);
  Alcotest.check_raises "scratch shorter than the log"
    (Invalid_argument "Dsu.touched_roots: scratch shorter than the touched log")
    (fun () ->
      ignore
        (Dsu.touched_roots d ~members:(Array.make 1 0)
           ~roots:(Array.make 6 0)));
  ignore (Dsu.union d 5 2);
  ignore (Dsu.find d 0);
  let members, roots = root_pass d in
  Alcotest.(check (array int)) "members in stamping order" [| 5; 2; 0 |] members;
  Alcotest.(check (array int)) "roots, -1 for a singleton" [| 5; 5; -1 |] roots

let () =
  Alcotest.run "dsu"
    [
      ( "basics",
        [
          Alcotest.test_case "create" `Quick test_create;
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "union basics" `Quick test_union_basics;
          Alcotest.test_case "transitivity" `Quick test_transitivity;
          Alcotest.test_case "self union" `Quick test_self_union;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "reset" `Quick test_reset;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "max set size" `Quick test_max_union_size;
          Alcotest.test_case "groups" `Quick test_groups;
          Alcotest.test_case "iter_sets" `Quick test_iter_sets;
          Alcotest.test_case "members sorted" `Quick test_members_sorted;
        ] );
      ( "touched",
        [ Alcotest.test_case "reset and fresh" `Quick test_touched_reset ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_touched_log ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_matches_naive; prop_set_count_invariant; prop_sizes_sum_to_n;
            prop_find_idempotent; prop_union_idempotent;
            prop_set_count_monotone; prop_epoch_reuse_no_stale;
            prop_dissolve_whole_set;
          ] );
    ]
