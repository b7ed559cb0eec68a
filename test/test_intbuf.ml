(* Tests for the growable integer buffer. *)

module Intbuf = Mobile_network.Intbuf

let test_empty () =
  let b = Intbuf.create () in
  Alcotest.(check int) "length" 0 (Intbuf.length b);
  Alcotest.(check (array int)) "to_array" [||] (Intbuf.to_array b)

let test_push_and_get () =
  let b = Intbuf.create () in
  Intbuf.push b 10;
  Intbuf.push b 20;
  Intbuf.push b 30;
  Alcotest.(check int) "length" 3 (Intbuf.length b);
  Alcotest.(check int) "get 0" 10 (Intbuf.get b 0);
  Alcotest.(check int) "get 2" 30 (Intbuf.get b 2);
  Alcotest.(check (array int)) "to_array order" [| 10; 20; 30 |]
    (Intbuf.to_array b)

let test_growth_beyond_capacity () =
  let b = Intbuf.create ~initial_capacity:2 () in
  for i = 0 to 999 do
    Intbuf.push b i
  done;
  Alcotest.(check int) "length" 1000 (Intbuf.length b);
  Alcotest.(check (array int)) "contents" (Array.init 1000 (fun i -> i))
    (Intbuf.to_array b)

let test_get_bounds () =
  let b = Intbuf.create () in
  Intbuf.push b 1;
  Alcotest.check_raises "past end" (Invalid_argument "Intbuf.get: index out of range")
    (fun () -> ignore (Intbuf.get b 1));
  Alcotest.check_raises "negative" (Invalid_argument "Intbuf.get: index out of range")
    (fun () -> ignore (Intbuf.get b (-1)))

let test_to_array_is_a_copy () =
  let b = Intbuf.create () in
  Intbuf.push b 5;
  let arr = Intbuf.to_array b in
  arr.(0) <- 99;
  Alcotest.(check int) "buffer unaffected" 5 (Intbuf.get b 0)

let prop_push_sequence =
  QCheck.Test.make ~name:"to_array returns exactly the pushed sequence"
    ~count:300
    QCheck.(list small_int)
    (fun xs ->
      let b = Intbuf.create ~initial_capacity:1 () in
      List.iter (Intbuf.push b) xs;
      Array.to_list (Intbuf.to_array b) = xs
      && Intbuf.length b = List.length xs)

let () =
  Alcotest.run "intbuf"
    [
      ( "intbuf",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "push and get" `Quick test_push_and_get;
          Alcotest.test_case "growth" `Quick test_growth_beyond_capacity;
          Alcotest.test_case "bounds" `Quick test_get_bounds;
          Alcotest.test_case "copy semantics" `Quick test_to_array_is_a_copy;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_push_sequence ] );
    ]
