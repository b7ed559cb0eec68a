(* Tests for the generic engine layers: every space instance records
   its run the same way (a series is pure observation and equals what
   [on_step] sees), degenerate parameter values at the space level, pair
   sets against brute force, and unit tests of each exchange policy on
   hand-built visibility graphs. *)

module Config = Mobile_network.Config
module Engine = Mobile_network.Engine
module Simulation = Mobile_network.Simulation
module Exchange = Mobile_network.Exchange
module Protocol = Mobile_network.Protocol
module Rumor_set = Mobile_network.Rumor_set
module Space = Mobile_network.Space
module Continuum_engine = Engine.Make (Continuum.Space)
module Domain_engine = Engine.Make (Barriers.Domain_space)

(* Clementi et al.'s dense model: the grid engine with a jump kernel of
   radius [rho] and one-hop exchange at radius [big_r] *)
let clementi ?series ~side ~agents ~big_r ~rho ~seed ~trial ~max_steps () =
  Simulation.run_config ?series
    (Config.make ~side ~agents ~radius:big_r ~kernel:(Walk.Jump rho)
       ~exchange:Config.Single_hop ~seed ~trial ~max_steps ())

(* --- recording ------------------------------------------------------------- *)

let stride1_series () =
  Obs.Series.create ~capacity:max_int
    ~columns:Mobile_network.Engine.series_columns ()

(* Attaching a series is pure observation on every space: the
   recorded run agrees with the plain one, and its series holds steps + 1
   rows (row 0 is the initial state) ending at the final informed
   count. *)
let test_recorded_run_agrees_with_broadcast () =
  let check label ~steps ~informed ~steps' ~informed' sr =
    Alcotest.(check int) (label ^ " steps") steps steps';
    Alcotest.(check int) (label ^ " informed") informed informed';
    Alcotest.(check int) (label ^ " rows") (steps + 1) (Obs.Series.rows sr);
    let col = Obs.Series.column sr "informed" in
    Alcotest.(check int)
      (label ^ " final informed row")
      informed
      col.(Array.length col - 1)
  in
  let ccfg =
    clementi ~side:16 ~agents:24 ~big_r:2 ~rho:2 ~seed:3 ~trial:1
      ~max_steps:2_000
  in
  let sr = stride1_series () in
  let cb = ccfg () and cr = ccfg ~series:sr () in
  check "clementi" ~steps:cb.Engine.steps ~informed:cb.Engine.informed
    ~steps':cr.Engine.steps ~informed':cr.Engine.informed sr;
  let continuum ?series () =
    Continuum_engine.run
      (Continuum_engine.create ?series
         ~space:
           (Continuum.Space.create ~box_side:8. ~radius:1. ~sigma:0.25
              ~agents:32)
         (Engine.default_spec ~agents:32 ~seed:3 ~trial:1 ~max_steps:50_000))
  in
  let sr = stride1_series () in
  let ub = continuum () and ur = continuum ~series:sr () in
  check "continuum" ~steps:ub.Engine.steps ~informed:ub.Engine.informed
    ~steps':ur.Engine.steps ~informed':ur.Engine.informed sr;
  let domain = Barriers.Domain.central_wall (Grid.create ~side:16 ()) ~gap:2 in
  let barrier ?series () =
    Domain_engine.run
      (Domain_engine.create ?series
         ~space:
           (Barriers.Domain_space.create domain ~radius:0 ~los_blocking:false)
         (Engine.default_spec ~agents:12 ~seed:3 ~trial:1 ~max_steps:20_000))
  in
  let sr = stride1_series () in
  let bb = barrier () and br = barrier ~series:sr () in
  check "barrier" ~steps:bb.Engine.steps
    ~informed:bb.Engine.informed ~steps':br.Engine.steps
    ~informed':br.Engine.informed sr

(* A stride-1 series is the run's per-step record: steps + 1 rows whose
   trajectory columns equal what [on_step] observes through the engine
   getters, on every space instance. *)
module Series_vs_on_step (S : Space.S) = struct
  module E = Mobile_network.Engine.Make (S)

  let check label ~space spec =
    let sr = stride1_series () in
    let e = E.create ~series:sr ~space spec in
    let seen = ref [] in
    let observe e =
      seen :=
        [| E.informed_count e; E.frontier_x e; E.max_island e;
           E.covered_count e |]
        :: !seen
    in
    observe e;
    let r = E.run ~on_step:observe e in
    let seen = Array.of_list (List.rev !seen) in
    Alcotest.(check int) (label ^ ": rows = steps + 1") (r.steps + 1)
      (Obs.Series.rows sr);
    List.iteri
      (fun i name ->
        Alcotest.(check (array int))
          (Printf.sprintf "%s: %s column = on_step" label name)
          (Array.map (fun obs -> obs.(i)) seen)
          (Obs.Series.column sr name))
      [ "informed"; "frontier"; "max_island"; "covered" ]
end

let test_stride1_series_equals_on_step () =
  let module Engine = Mobile_network.Engine in
  let module G = Series_vs_on_step (Mobile_network.Grid_space) in
  let grid = Grid.create ~side:12 () in
  G.check "grid"
    ~space:
      (Mobile_network.Grid_space.create grid ~kernel:Walk.Lazy_one_fifth
         ~radius:1)
    { (Engine.default_spec ~agents:10 ~seed:1 ~trial:0 ~max_steps:5_000) with
      Engine.protocol = Mobile_network.Protocol.Broadcast_cover };
  G.check "clementi"
    ~space:
      (Mobile_network.Grid_space.create grid ~kernel:(Walk.Jump 2) ~radius:2)
    { (Engine.default_spec ~agents:24 ~seed:1 ~trial:0 ~max_steps:2_000) with
      Engine.exchange = Exchange.Single_hop };
  let module C = Series_vs_on_step (Continuum.Space) in
  C.check "continuum"
    ~space:(Continuum.Space.create ~box_side:8. ~radius:1. ~sigma:0.25 ~agents:32)
    (Engine.default_spec ~agents:32 ~seed:1 ~trial:0 ~max_steps:50_000);
  let module B = Series_vs_on_step (Barriers.Domain_space) in
  B.check "barrier"
    ~space:
      (Barriers.Domain_space.create
         (Barriers.Domain.central_wall (Grid.create ~side:16 ()) ~gap:2)
         ~radius:0 ~los_blocking:false)
    (Engine.default_spec ~agents:12 ~seed:1 ~trial:0 ~max_steps:20_000)

(* --- pair-set oracle ------------------------------------------------------- *)

(* Each space's [iter_close_pairs] against the O(k^2) scan of its own
   distance rule: the same set of unordered pairs, each exactly once.
   The index is loaded four times over a few moves (so every rebuild but
   the first reuses the previous one's state, as in a run), the third
   time under a churn mask. [place] may move agents by hand before each
   load. *)
module Pair_oracle (S : Space.S) = struct
  let holds ?(place = ignore) space ~n ~seed ~close =
    let pos = S.init_positions space (Prng.of_seed seed) ~n in
    let rngs = Array.init n (fun i -> Prng.of_seed (seed + i + 1)) in
    List.for_all
      (fun step ->
        if step > 0 then S.move_all space pos rngs Space.Mobile_all;
        place pos;
        let present =
          if step = 2 then Some (Array.init n (fun i -> i mod 3 <> 1)) else None
        in
        let indexed i = match present with None -> true | Some p -> p.(i) in
        S.rebuild_index ?present space pos;
        let got = ref [] in
        S.iter_close_pairs space ~f:(fun i j ->
            got := (min i j, max i j) :: !got);
        let expected = ref [] in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            if indexed i && indexed j && close pos i j then
              expected := (i, j) :: !expected
          done
        done;
        List.sort compare !got = List.sort compare !expected)
      [ 0; 1; 2; 3 ]
end

let prop_grid_pairs =
  let module O = Pair_oracle (Mobile_network.Grid_space) in
  QCheck.Test.make ~name:"grid pairs = brute force" ~count:150
    QCheck.(
      pair
        (quad (int_range 3 14) (int_range 1 30) (int_range 0 6) bool)
        (pair small_int bool))
    (fun ((side, n, radius, torus), (seed, jump)) ->
      let grid =
        Grid.create
          ~topology:(if torus then Grid.Torus else Grid.Bounded)
          ~side ()
      in
      let kernel = if jump then Walk.Jump 2 else Walk.Lazy_one_fifth in
      O.holds
        (Mobile_network.Grid_space.create grid ~kernel ~radius)
        ~n ~seed
        ~close:(fun pos i j ->
          Grid.manhattan grid
            (Mobile_network.Grid_space.node_at pos i)
            (Mobile_network.Grid_space.node_at pos j)
          <= radius))

(* Four radius shapes: any radius up to 4; radii small enough that the
   cap of [2 sqrt k + 3] cells per row binds; radii near the box side
   (one or two cells); and 1, 1/2 or 1/4, so that agents on multiples
   of the radius sit at exactly the radius apart. With [snap], every
   agent has a coordinate exactly on a cell boundary, on a multiple of
   the radius, or at [0.] or [box_side] before each load, and one in
   three has both. *)
let prop_continuum_pairs =
  let module S = Continuum.Space in
  let module O = Pair_oracle (S) in
  QCheck.Test.make ~name:"continuum pairs = brute force" ~count:300
    QCheck.(
      quad (float_range 1. 12.) (int_range 1 30)
        (pair (int_range 0 3) (float_range 0. 1.))
        (pair small_int bool))
    (fun (box_side, n, (shape, u), (seed, snap)) ->
      let capped = (2 * int_of_float (sqrt (float_of_int n))) + 3 in
      let radius =
        match shape with
        | 0 -> 4. *. u
        | 1 -> box_side /. float_of_int (capped + 1 + int_of_float (20. *. u))
        | 2 -> box_side *. (0.75 +. (0.5 *. u))
        | _ -> Float.ldexp 1. (-int_of_float (3. *. u))
      in
      let per_row =
        if radius > 0. then
          max 1 (min (int_of_float (Float.floor (box_side /. radius))) capped)
        else 1
      in
      let cell = box_side /. float_of_int per_row in
      let rng = Prng.of_seed (seed + 1000) in
      let multiple step =
        Float.min box_side (float_of_int (Prng.int rng (per_row + 2)) *. step)
      in
      let boundary () =
        match Prng.int rng 4 with
        | 0 -> 0.
        | 1 -> box_side
        | 2 -> multiple cell
        | _ -> multiple radius
      in
      let place (pos : S.pos) =
        if snap then
          Array.iteri
            (fun i _ ->
              if i mod 3 < 2 then pos.S.xs.(i) <- boundary ();
              if i mod 3 <> 1 then pos.S.ys.(i) <- boundary ())
            pos.S.xs
      in
      O.holds ~place
        (S.create ~box_side ~radius ~sigma:(box_side /. 8.) ~agents:n)
        ~n ~seed
        ~close:(fun pos i j ->
          (* a zero radius has no edges, even between coinciding agents *)
          let dx = pos.S.xs.(i) -. pos.S.xs.(j)
          and dy = pos.S.ys.(i) -. pos.S.ys.(j) in
          radius > 0. && (dx *. dx) +. (dy *. dy) <= radius *. radius))

let prop_domain_pairs =
  let module O = Pair_oracle (Barriers.Domain_space) in
  QCheck.Test.make ~name:"domain pairs = brute force" ~count:150
    QCheck.(
      pair
        (quad (int_range 4 14) (int_range 1 30) (int_range 0 6) small_int)
        (pair bool bool))
    (fun ((side, n, radius, seed), (wall, los_blocking)) ->
      let grid = Grid.create ~side () in
      let domain =
        if wall then Barriers.Domain.central_wall grid ~gap:1
        else Barriers.Domain.unobstructed grid
      in
      O.holds
        (Barriers.Domain_space.create domain ~radius ~los_blocking)
        ~n ~seed
        ~close:(fun pos i j ->
          let node = Mobile_network.Grid_space.node_at pos in
          Grid.manhattan grid (node i) (node j) <= radius
          && ((not los_blocking)
             || Barriers.Domain.line_of_sight domain (node i) (node j))))

(* --- degenerate parameters ------------------------------------------------ *)

let test_jump_zero_is_identity () =
  let grid = Grid.create ~side:8 () in
  let rng = Prng.of_seed 9 and witness = Prng.of_seed 9 in
  let v = Grid.index grid ~x:3 ~y:4 in
  Alcotest.(check int) "stays put" v (Walk.step grid (Walk.Jump 0) rng v);
  (* rho = 0 must also consume no randomness *)
  Alcotest.(check int) "no draws" (Prng.int witness 1_000_000)
    (Prng.int rng 1_000_000)

let test_static_disconnected_times_out () =
  (* rho = 0 and R = 0: nobody moves, nobody meets — the run must time
     out with only the source informed *)
  let r =
    clementi ~side:8 ~agents:6 ~big_r:0 ~rho:0 ~seed:2 ~trial:0 ~max_steps:50
      ()
  in
  Alcotest.(check bool) "timed out" true
    (match r.Engine.outcome with
    | Engine.Timed_out -> true
    | Engine.Completed -> false);
  Alcotest.(check int) "only the source" 1 r.Engine.informed

let test_full_radius_instant () =
  (* R covering the whole grid: the time-0 exchange already floods *)
  let r =
    clementi ~side:8 ~agents:6 ~big_r:16 ~rho:0 ~seed:2 ~trial:0 ~max_steps:50
      ()
  in
  Alcotest.(check int) "instant" 0 r.Engine.steps;
  Alcotest.(check int) "everyone informed" 6 r.Engine.informed

let test_continuum_zero_radius_no_pairs () =
  let module S = Continuum.Space in
  let s = S.create ~box_side:4. ~radius:0. ~sigma:0.25 ~agents:8 in
  let pos = S.init_positions s (Prng.of_seed 1) ~n:8 in
  S.rebuild_index s pos;
  let pairs = ref 0 in
  S.iter_close_pairs s ~f:(fun _ _ -> incr pairs);
  Alcotest.(check int) "no visibility edges at radius 0" 0 !pairs

(* --- exchange policies on hand-built graphs ------------------------------- *)

let test_flood_single () =
  let informed = [| true; false; false; false; false |] in
  let x = Exchange.create ~population:5 ~predators:0 ~informed ~rumors:[||] in
  x.Exchange.informed_count <- 1;
  (* components {0, 1, 2} and {3, 4}; only the first holds the rumor *)
  let dsu = Dsu.create 5 in
  ignore (Dsu.union dsu 0 1);
  ignore (Dsu.union dsu 1 2);
  ignore (Dsu.union dsu 3 4);
  Exchange.flood_single x ~dsu;
  Alcotest.(check (array bool)) "informed component floods"
    [| true; true; true; false; false |]
    informed;
  Alcotest.(check int) "count tracked" 3 x.Exchange.informed_count

let test_flood_gossip () =
  let population = 4 in
  let rumors =
    Array.init population (fun i -> Rumor_set.singleton ~capacity:population i)
  in
  let informed = Array.init population (fun i -> i = 0) in
  let x = Exchange.create ~population ~predators:0 ~informed ~rumors in
  x.Exchange.informed_count <- 1;
  x.Exchange.total_known <- population;
  (* component {0, 1, 2}; agent 3 is isolated *)
  let dsu = Dsu.create population in
  ignore (Dsu.union dsu 0 1);
  ignore (Dsu.union dsu 1 2);
  Exchange.flood_gossip x ~dsu;
  Array.iteri
    (fun i s ->
      let expected = if i < 3 then 3 else 1 in
      Alcotest.(check int)
        (Printf.sprintf "agent %d cardinal" i)
        expected (Rumor_set.cardinal s))
    rumors;
  Alcotest.(check int) "total known" 10 x.Exchange.total_known;
  (* rumor-0 tracking: agents 1 and 2 learned rumor 0 *)
  Alcotest.(check int) "informed count" 3 x.Exchange.informed_count

let test_single_hop_no_chaining () =
  (* path 0 - 1 - 2 with only agent 0 informed: the rumor crosses one
     edge per step, so agent 2 must NOT learn it this step *)
  let informed = [| true; false; false |] in
  let x = Exchange.create ~population:3 ~predators:0 ~informed ~rumors:[||] in
  x.Exchange.informed_count <- 1;
  let iter_pairs f =
    f 0 1;
    f 1 2
  in
  Exchange.single_hop_single x ~iter_pairs;
  Alcotest.(check (array bool)) "one hop only" [| true; true; false |] informed;
  Alcotest.(check int) "count" 2 x.Exchange.informed_count;
  (* the next step carries it the rest of the way *)
  Exchange.single_hop_single x ~iter_pairs;
  Alcotest.(check (array bool)) "second hop" [| true; true; true |] informed

let test_single_hop_gossip_pre_step_snapshots () =
  let population = 3 in
  let rumors =
    Array.init population (fun i -> Rumor_set.singleton ~capacity:population i)
  in
  let informed = Array.init population (fun i -> i = 0) in
  let x = Exchange.create ~population ~predators:0 ~informed ~rumors in
  x.Exchange.informed_count <- 1;
  x.Exchange.total_known <- population;
  let iter_pairs f =
    f 0 1;
    f 1 2
  in
  Exchange.single_hop_gossip x ~iter_pairs;
  (* all deliveries read pre-step sets: 1 hears from both neighbours,
     but 0 and 2 only hear 1's original singleton *)
  Alcotest.(check int) "agent 0" 2 (Rumor_set.cardinal rumors.(0));
  Alcotest.(check int) "agent 1" 3 (Rumor_set.cardinal rumors.(1));
  Alcotest.(check int) "agent 2" 2 (Rumor_set.cardinal rumors.(2));
  Alcotest.(check bool) "2 did not get rumor 0 through 1" false
    (Rumor_set.mem rumors.(2) 0);
  Alcotest.(check int) "total known" 7 x.Exchange.total_known;
  Alcotest.(check int) "rumor-0 informed" 2 x.Exchange.informed_count

let test_catch_preys_no_chaining () =
  (* predator 0; preys 1, 2. Edges 0-1 and 1-2: prey 1 is caught by
     direct contact, prey 2 survives (catching never chains) *)
  let informed = [| true; false; false |] in
  let x = Exchange.create ~population:3 ~predators:1 ~informed ~rumors:[||] in
  x.Exchange.informed_count <- 1;
  x.Exchange.live_preys <- 2;
  let iter_pairs f =
    f 0 1;
    f 1 2
  in
  Exchange.catch_preys x ~iter_pairs;
  Alcotest.(check (array bool)) "direct catch only" [| true; true; false |]
    informed;
  Alcotest.(check int) "one prey left" 1 x.Exchange.live_preys;
  (* idempotent on an already-caught prey *)
  Exchange.catch_preys x ~iter_pairs;
  Alcotest.(check int) "no double catch" 1 x.Exchange.live_preys

(* --- exchange policies against their O(population) reference bodies ------ *)

(* The bodies the touched-log exchange replaced, kept as the obviously
   correct oracle: every agent is visited and the scratch is fresh. *)
module Reference = struct
  type st = {
    informed : bool array;
    mutable count : int;
    rumors : Rumor_set.t array;
    mutable total_known : int;
  }

  let inform st i =
    st.informed.(i) <- true;
    st.count <- st.count + 1

  let flood_single st ~dsu =
    let n = Array.length st.informed in
    let root_informed = Array.make n false in
    for i = 0 to n - 1 do
      if st.informed.(i) then root_informed.(Dsu.find dsu i) <- true
    done;
    for i = 0 to n - 1 do
      if (not st.informed.(i)) && root_informed.(Dsu.find dsu i) then
        inform st i
    done

  let flood_gossip st ~dsu =
    let n = Array.length st.informed in
    let acc = Array.make n None in
    for i = 0 to n - 1 do
      if Dsu.set_size dsu i > 1 then begin
        let root = Dsu.find dsu i in
        let s =
          match acc.(root) with
          | Some s -> s
          | None ->
              let s = Rumor_set.create ~capacity:n in
              acc.(root) <- Some s;
              s
        in
        ignore (Rumor_set.union_into ~src:st.rumors.(i) ~dst:s)
      end
    done;
    for i = 0 to n - 1 do
      if Dsu.set_size dsu i > 1 then begin
        let src = Option.get acc.(Dsu.find dsu i) in
        let added = Rumor_set.union_into ~src ~dst:st.rumors.(i) in
        st.total_known <- st.total_known + added;
        if added > 0 && (not st.informed.(i)) && Rumor_set.mem st.rumors.(i) 0
        then inform st i
      end
    done

  let single_hop st ~pairs ~transmits ~accepts =
    let n = Array.length st.informed in
    let newly = Array.make n false in
    List.iter
      (fun (i, j) ->
        if st.informed.(i) && transmits.(i) && (not st.informed.(j)) && accepts.(j)
        then newly.(j) <- true
        else if
          st.informed.(j) && transmits.(j) && (not st.informed.(i)) && accepts.(i)
        then newly.(i) <- true)
      pairs;
    for i = 0 to n - 1 do
      if newly.(i) then inform st i
    done
end

(* One step of an exchange case: [resets] resets (0 keeps the previous
   step's sets; at step 0 it leaves a structure that was never reset),
   touches on elements that are still singletons ([Find], [Size],
   [Dissolve]), the step's edges unioned (and, i != j, its pair list),
   then more finds and sizes. The touches only pollute the log.
   [forget] un-informs agents before the single-rumor policies run: the
   engine never does, but the knowledge state is transparent, and a
   policy must be a function of it and the graph alone — scratch marks
   left over from an earlier call must not leak into this one (with
   knowledge only ever growing, a stale mark could hide). *)
type touch = Find | Size | Dissolve

type step = {
  resets : int;
  before : (touch * int) list;
  edges : (int * int) list;
  after : (touch * int) list;
  forget : int list;
}

type case = {
  n : int;
  init : bool array;  (* initially informed (knows rumor 0) *)
  transmits : bool array;
  accepts : bool array;
  steps : step list;
}

let case_arb =
  let open QCheck.Gen in
  let gen =
    (* up to 150 agents, so gossip's rumor sets (capacity n) span one to
       three 64-bit words, with the word edges drawn often *)
    let* n =
      frequency
        [ (3, int_range 1 64); (2, oneofl [ 65; 128; 129; 130 ]);
          (2, int_range 65 150) ]
    in
    let agent = int_range 0 (n - 1) in
    let flags p = array_size (return n) (map (fun x -> x < p) float) in
    let touch = oneofl [ Find; Size; Dissolve ] in
    let step =
      let* resets = frequency [ (1, return 0); (4, return 1); (1, return 2) ] in
      let* before = list_size (int_range 0 6) (pair touch agent) in
      let* edges = list_size (int_range 0 (n + 4)) (pair agent agent) in
      let* after = list_size (int_range 0 4) (pair (oneofl [ Find; Size ]) agent) in
      let* forget = list_size (int_range 0 3) agent in
      return { resets; before; edges; after; forget }
    in
    let* init = flags 0.25 in
    let* transmits = flags 0.8 in
    let* accepts = flags 0.8 in
    let* steps = list_size (int_range 1 6) step in
    return { n; init; transmits; accepts; steps }
  in
  QCheck.make gen ~print:(fun c ->
      Printf.sprintf "n=%d steps=%d informed=%d" c.n (List.length c.steps)
        (Array.fold_left (fun a b -> if b then a + 1 else a) 0 c.init))

(* Replay one step's DSU script; the same script on two structures gives
   the same sets. A dissolve is only applied where the element is
   provably a singleton (after a reset, or on a never-reset structure
   at step 0), so dissolves always cover whole sets. *)
let replay_step dsu ~first s =
  for _ = 1 to s.resets do
    Dsu.reset dsu
  done;
  let touch (t, i) =
    match t with
    | Find -> ignore (Dsu.find dsu i)
    | Size -> ignore (Dsu.set_size dsu i)
    | Dissolve -> if first || s.resets > 0 then Dsu.dissolve dsu i
  in
  (* before any union of the epoch, every element is a singleton *)
  List.iter touch s.before;
  List.iter (fun (i, j) -> ignore (Dsu.union dsu i j)) s.edges;
  List.iter touch s.after

let pairs_of s = List.filter (fun (i, j) -> i <> j) s.edges

type policy = Flood_single | Flood_gossip | Single_hop | Single_hop_masked

(* Run [policy] over every step on a fresh exchange state and on the
   reference, each with its own DSU replaying the same script (the
   reference's O(n) finds must not feed the fast DSU's log), and
   compare the full knowledge state after each step. *)
let agrees policy c =
  let gossip = match policy with Flood_gossip -> true | _ -> false in
  let rumor_sets () =
    if gossip then
      Array.init c.n (fun i ->
          let s = Rumor_set.singleton ~capacity:c.n i in
          if c.init.(i) then ignore (Rumor_set.add s 0);
          s)
    else [||]
  in
  let informed0 = Array.mapi (fun i b -> b || (gossip && i = 0)) c.init in
  let count0 = Array.fold_left (fun a b -> if b then a + 1 else a) 0 informed0 in
  let total0 rumors =
    Array.fold_left (fun a s -> a + Rumor_set.cardinal s) 0 rumors
  in
  let x =
    Exchange.create ~population:c.n ~predators:0
      ~informed:(Array.copy informed0) ~rumors:(rumor_sets ())
  in
  x.Exchange.informed_count <- count0;
  x.Exchange.total_known <- total0 x.Exchange.rumors;
  let r =
    let rumors = rumor_sets () in
    {
      Reference.informed = Array.copy informed0;
      count = count0;
      rumors;
      total_known = total0 rumors;
    }
  in
  let fast_dsu = Dsu.create c.n and ref_dsu = Dsu.create c.n in
  let all_true = Array.make c.n true in
  let same () =
    x.Exchange.informed = r.Reference.informed
    && x.Exchange.informed_count = r.Reference.count
    && x.Exchange.total_known = r.Reference.total_known
    && Array.for_all2 Rumor_set.equal x.Exchange.rumors r.Reference.rumors
  in
  List.for_all
    (fun (k, s) ->
      replay_step fast_dsu ~first:(k = 0) s;
      replay_step ref_dsu ~first:(k = 0) s;
      if not gossip then
        List.iter
          (fun i ->
            if x.Exchange.informed.(i) then begin
              x.Exchange.informed.(i) <- false;
              x.Exchange.informed_count <- x.Exchange.informed_count - 1
            end;
            if r.Reference.informed.(i) then begin
              r.Reference.informed.(i) <- false;
              r.Reference.count <- r.Reference.count - 1
            end)
          s.forget;
      let pairs = pairs_of s in
      let iter_pairs f = List.iter (fun (i, j) -> f i j) pairs in
      (match policy with
      | Flood_single ->
          Exchange.flood_single x ~dsu:fast_dsu;
          Reference.flood_single r ~dsu:ref_dsu
      | Flood_gossip ->
          Exchange.flood_gossip x ~dsu:fast_dsu;
          Reference.flood_gossip r ~dsu:ref_dsu
      | Single_hop ->
          Exchange.single_hop_single x ~iter_pairs;
          Reference.single_hop r ~pairs ~transmits:all_true ~accepts:all_true
      | Single_hop_masked ->
          Exchange.single_hop_single_masked x ~iter_pairs
            ~transmits:c.transmits ~accepts:c.accepts;
          Reference.single_hop r ~pairs ~transmits:c.transmits
            ~accepts:c.accepts);
      same ())
    (List.mapi (fun k s -> (k, s)) c.steps)

let prop_policy name policy =
  QCheck.Test.make ~name:(name ^ " = O(population) reference") ~count:300
    case_arb (agrees policy)

let prop_policies =
  [
    prop_policy "flood_single" Flood_single;
    prop_policy "flood_gossip" Flood_gossip;
    prop_policy "single_hop_single" Single_hop;
    prop_policy "single_hop_single_masked" Single_hop_masked;
  ]

(* --- clique mode ----------------------------------------------------------- *)

(* At radius 0 every component is the group on one node, so a fault-free
   grid run floods by one hop and reads its islands from the groups,
   with no union-find. A fault plan that never acts (one outage window
   past the step cap) forces the same configuration onto the union-find
   path; the two must agree at every step on the informed flags and
   count, the positions, the largest island and the set count. *)
let prop_clique_mode_agrees =
  QCheck.Test.make ~name:"radius-0 clique mode = union-find path, every step"
    ~count:150
    QCheck.(
      pair
        (quad (int_range 3 32) (int_range 1 80) (int_range 1 3) bool)
        (triple
           (oneofl
              [ Protocol.Broadcast; Protocol.Frog; Protocol.Broadcast_cover ])
           (oneofl [ Config.Flood_component; Config.Single_hop ])
           (int_range 0 9999)))
    (fun ((side, agents, sources, torus), (protocol, exchange, seed)) ->
      let max_steps = 120 in
      let make faults =
        Config.make ~side ~agents ~torus ~protocol ~exchange ~seed
          ~sources:(min sources agents) ~max_steps ~faults ()
      in
      let inert =
        { Faults.Plan.empty with
          Faults.Plan.windows =
            [ { Faults.Plan.w_from = max_steps + 1;
                w_until = max_steps + 2;
                w_agent = None } ] }
      in
      let sa = stride1_series () and sb = stride1_series () in
      let a = Simulation.create ~series:sa (make Faults.Plan.empty)
      and b = Simulation.create ~series:sb (make inert) in
      let sorted e = List.sort compare (Array.to_list e) in
      let agree () =
        Simulation.informed_count a = Simulation.informed_count b
        && List.for_all
             (fun i -> Simulation.is_informed a i = Simulation.is_informed b i)
             (List.init agents Fun.id)
        && Simulation.positions a = Simulation.positions b
        && Simulation.max_island a = Simulation.max_island b
        && sorted (Simulation.island_sizes a)
           = sorted (Simulation.island_sizes b)
      in
      let ok = ref (agree ()) in
      while !ok && not (Simulation.is_done a && Simulation.is_done b)
            && Simulation.time a < max_steps do
        Simulation.step a;
        Simulation.step b;
        ok := agree () && Simulation.time a = Simulation.time b
      done;
      !ok
      && List.for_all
           (fun c -> Obs.Series.column sa c = Obs.Series.column sb c)
           [ "informed"; "components"; "max_island"; "covered" ])

let () =
  Alcotest.run "engine"
    [
      ( "cross-engine",
        [
          Alcotest.test_case "recorded run agrees with broadcast" `Quick
            test_recorded_run_agrees_with_broadcast;
          Alcotest.test_case "stride-1 series = on_step" `Quick
            test_stride1_series_equals_on_step;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "jump rho=0 is identity" `Quick
            test_jump_zero_is_identity;
          Alcotest.test_case "static disconnected times out" `Quick
            test_static_disconnected_times_out;
          Alcotest.test_case "full radius instant" `Quick
            test_full_radius_instant;
          Alcotest.test_case "continuum radius=0 has no pairs" `Quick
            test_continuum_zero_radius_no_pairs;
        ] );
      ( "oracles",
        List.map QCheck_alcotest.to_alcotest
          ([ prop_grid_pairs; prop_continuum_pairs; prop_domain_pairs ]
          @ prop_policies) );
      ( "policies",
        [
          Alcotest.test_case "flood_single" `Quick test_flood_single;
          Alcotest.test_case "flood_gossip" `Quick test_flood_gossip;
          Alcotest.test_case "single_hop no chaining" `Quick
            test_single_hop_no_chaining;
          Alcotest.test_case "single_hop_gossip snapshots" `Quick
            test_single_hop_gossip_pre_step_snapshots;
          Alcotest.test_case "catch_preys no chaining" `Quick
            test_catch_preys_no_chaining;
        ] );
      ("clique mode", [ QCheck_alcotest.to_alcotest prop_clique_mode_agrees ]);
    ]
