(* Tests for the deterministic domain-pool scheduler (Runtime.Pool).

   The load-bearing property is observable determinism: for any pool
   size, map/init/map_reduce return exactly what the sequential code
   returns, in submission order, and the production fan-out points
   (Sweep trial replication, Registry.run_all) are byte-identical at
   jobs = 1 and jobs = 4. *)

module Pool = Runtime.Pool
module Registry = Experiments.Registry
module Exp_result = Experiments.Exp_result
module Sweep = Experiments.Sweep
module Config = Mobile_network.Config

let with_ambient_jobs jobs fn =
  Fun.protect
    ~finally:(fun () -> Pool.set_ambient_jobs 1)
    (fun () ->
      Pool.set_ambient_jobs jobs;
      fn ())

(* --- pure pool semantics --- *)

let test_map_matches_list_map () =
  let items = List.init 37 (fun i -> (i * 13) + 1) in
  let f i x = (i * 1000) + (x * x) in
  let expect = List.mapi f items in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d equals List.mapi" jobs)
            expect
            (Pool.map pool ~f items)))
    [ 1; 2; 4; 7; 64 (* more workers than items *) ]

let test_edge_cases () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d empty list" jobs)
            []
            (Pool.map pool ~f:(fun _ x -> x) []);
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d single item" jobs)
            [ 42 ]
            (Pool.map pool ~f:(fun i x -> x + i) [ 42 ]);
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d init n=0" jobs)
            [||]
            (Pool.init pool ~n:0 ~f:(fun i -> i))))
    [ 1; 4 ];
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Pool.create: jobs < 1") (fun () ->
      ignore (Pool.create ~jobs:0))

(* --jobs is checked against the runtime's domain cap before any pool
   exists. Only values that spawn nothing reach Pool.create here: a
   regressed cap check must not start domains in the test process. *)
let test_jobs_bounds () =
  let check = Alcotest.(check (result unit string)) in
  check "1 accepted" (Ok ()) (Pool.check_jobs 1);
  check "cap accepted" (Ok ()) (Pool.check_jobs Pool.max_jobs);
  check "0 rejected" (Error "must be between 1 and 127 (got 0)")
    (Pool.check_jobs 0);
  check "cap + 1 rejected"
    (Error (Printf.sprintf "must be between 1 and 127 (got %d)"
              (Pool.max_jobs + 1)))
    (Pool.check_jobs (Pool.max_jobs + 1));
  check "huge rejected" (Error "must be between 1 and 127 (got 99999999)")
    (Pool.check_jobs 99999999);
  Alcotest.(check int) "128 domains, the caller's included" 127 Pool.max_jobs;
  Alcotest.check_raises "negative jobs rejected"
    (Invalid_argument "Pool.create: jobs < 1") (fun () ->
      ignore (Pool.create ~jobs:(-5)))

let test_init_matches_array_init () =
  let f i = (i * i) + 3 in
  let expect = Array.init 100 f in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d equals Array.init" jobs)
            expect
            (Pool.init pool ~n:100 ~f)))
    [ 1; 3; 5 ]

let test_map_reduce_in_order () =
  (* a non-commutative reduce detects any ordering violation *)
  let items = List.init 23 (fun i -> i * 7) in
  let map i x = Printf.sprintf "%d:%d;" i x in
  let reduce acc s = acc ^ s in
  let expect = List.fold_left reduce "" (List.mapi map items) in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check string)
            (Printf.sprintf "jobs=%d in-order fold" jobs)
            expect
            (Pool.map_reduce pool ~map ~reduce ~init:"" items)))
    [ 1; 4 ]

let test_on_result_submission_order () =
  let n = 25 in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let fired = ref [] in
          let results =
            Pool.map pool
              ~on_result:(fun i r -> fired := (i, r) :: !fired)
              ~f:(fun i x -> x - i)
              (List.init n (fun i -> i * 2))
          in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "jobs=%d on_result in submission order" jobs)
            (List.mapi (fun i r -> (i, r)) results)
            (List.rev !fired)))
    [ 1; 4 ]

let test_on_progress_counts () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let events = ref 0 in
      let max_done = ref 0 in
      ignore
        (Pool.map pool
           ~on_progress:(fun ~done_ ~total ~job:_ ->
             incr events;
             Alcotest.(check int) "total" 16 total;
             max_done := max !max_done done_)
           ~f:(fun i _ -> i)
           (List.init 16 (fun i -> i)));
      Alcotest.(check int) "one event per job" 16 !events;
      Alcotest.(check int) "done_ reaches total" 16 !max_done)

exception Boom of int

let test_exception_propagation () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let raised =
            try
              ignore
                (Pool.map pool
                   ~f:(fun i _ -> if i mod 7 = 3 then raise (Boom i) else i)
                   (List.init 20 (fun i -> i)));
              None
            with Boom i -> Some i
          in
          (* lowest failing index (3, 10, 17 all fail) wins, matching
             what the sequential run raises first *)
          Alcotest.(check (option int))
            (Printf.sprintf "jobs=%d lowest-index exception" jobs)
            (Some 3) raised;
          (* the pool must survive a failed fan-out *)
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d pool usable after exception" jobs)
            [ 0; 2; 4 ]
            (Pool.map pool ~f:(fun _ x -> 2 * x) [ 0; 1; 2 ])))
    [ 1; 4 ]

let test_nested_fanout_no_deadlock () =
  (* Every outer job fans out again on the same pool; with fewer
     workers than outer jobs this deadlocks unless nested calls help
     run queued work instead of blocking. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let outer =
        Pool.map pool
          ~f:(fun i _ ->
            Array.to_list
              (Pool.init pool ~n:8 ~f:(fun j -> (i * 100) + j)))
          (List.init 6 (fun i -> i))
      in
      Alcotest.(check (list (list int)))
        "nested results in order"
        (List.init 6 (fun i -> List.init 8 (fun j -> (i * 100) + j)))
        outer)

let test_ambient_pool () =
  with_ambient_jobs 3 (fun () ->
      Alcotest.(check int) "ambient_jobs" 3 (Pool.ambient_jobs ());
      Alcotest.(check int) "ambient pool size" 3 (Pool.jobs (Pool.ambient ())));
  Alcotest.(check int) "ambient restored" 1 (Pool.ambient_jobs ())

(* An out-of-range size is refused at the call, and the ambient size is
   left as it was. The ambient pool is never forced here, so no domain
   is spawned whatever the size. *)
let test_ambient_jobs_range () =
  with_ambient_jobs 3 (fun () ->
      List.iter
        (fun n ->
          Alcotest.check_raises
            (Printf.sprintf "set_ambient_jobs %d" n)
            (Invalid_argument
               (Printf.sprintf
                  "Pool.set_ambient_jobs: jobs must be between 1 and %d (got %d)"
                  Pool.max_jobs n))
            (fun () -> Pool.set_ambient_jobs n);
          Alcotest.(check int)
            (Printf.sprintf "ambient_jobs unchanged by %d" n)
            3 (Pool.ambient_jobs ()))
        [ Pool.max_jobs + 1; 0; -1 ])

(* --- production fan-out points --- *)

let measure_sweep () =
  let m =
    Sweep.completion_times ~trials:12 ~cfg:(fun ~trial ->
        Config.make ~side:16 ~agents:6 ~radius:0 ~seed:5 ~trial ())
  in
  (Array.to_list m.Sweep.times, m.Sweep.timeouts)

let test_sweep_identical_across_jobs () =
  let seq = with_ambient_jobs 1 measure_sweep in
  let par = with_ambient_jobs 4 measure_sweep in
  Alcotest.(check (pair (list (float 0.)) int))
    "completion_times identical at jobs=1 and jobs=4" seq par;
  let prob () =
    Sweep.probability ~trials:40 ~f:(fun ~trial -> trial mod 3 = 0)
  in
  Alcotest.(check (float 0.))
    "probability identical at jobs=1 and jobs=4"
    (with_ambient_jobs 1 prob) (with_ambient_jobs 4 prob)

let render_registry () =
  let buf = Buffer.create (1 lsl 16) in
  let fmt = Format.formatter_of_buffer buf in
  let results = Registry.run_all ~quick:true ~seed:0 fmt () in
  Format.pp_print_flush fmt ();
  (Buffer.contents buf, List.map Exp_result.to_csv results)

let test_run_all_identical_across_jobs () =
  (* the full production path of `mobisim exp --jobs N`: experiments fan
     out over the ambient pool and their sweeps nest on the same pool *)
  let rendered_seq, csv_seq = with_ambient_jobs 1 render_registry in
  let rendered_par, csv_par = with_ambient_jobs 4 render_registry in
  Alcotest.(check (list string))
    "per-experiment CSV identical at jobs=1 and jobs=4" csv_seq csv_par;
  Alcotest.(check string)
    "rendered run_all output byte-identical at jobs=1 and jobs=4"
    rendered_seq rendered_par

let () =
  Alcotest.run "runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches List.mapi" `Quick
            test_map_matches_list_map;
          Alcotest.test_case "edge cases" `Quick test_edge_cases;
          Alcotest.test_case "jobs bounded by the domain cap" `Quick
            test_jobs_bounds;
          Alcotest.test_case "init matches Array.init" `Quick
            test_init_matches_array_init;
          Alcotest.test_case "map_reduce folds in order" `Quick
            test_map_reduce_in_order;
          Alcotest.test_case "on_result fires in submission order" `Quick
            test_on_result_submission_order;
          Alcotest.test_case "on_progress fires once per job" `Quick
            test_on_progress_counts;
          Alcotest.test_case "first exception propagates after drain" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested fan-out helps instead of deadlocking"
            `Quick test_nested_fanout_no_deadlock;
          Alcotest.test_case "ambient pool" `Quick test_ambient_pool;
          Alcotest.test_case "ambient size out of range" `Quick
            test_ambient_jobs_range;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "sweep trials identical across jobs" `Quick
            test_sweep_identical_across_jobs;
          Alcotest.test_case "registry run_all identical across jobs" `Slow
            test_run_all_identical_across_jobs;
        ] );
    ]
