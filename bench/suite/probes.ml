(* Micro-probes: each primitive layer's public entry point, timed alone on
   state taken from the workload's engine configuration (agent positions
   after a few steps of its trial 0). Every workload runs the same
   probes, so a change to one primitive shows on every workload at once,
   next to the end-to-end numbers it should or should not move. *)

module Config = Mobile_network.Config
module Simulation = Mobile_network.Simulation
module Exchange = Mobile_network.Exchange
module Rumor_set = Mobile_network.Rumor_set

let per total count = float_of_int total /. float_of_int (max 1 count)

(* Wall ns of [f ()], drawn as a [probe.<name>] span. *)
let timed (ctx : Ctx.t) name f =
  let t0 = Ctx.now () in
  f ();
  let t1 = Ctx.now () in
  Ctx.span ctx ("probe." ^ name) ~t0 ~t1 ~v:0;
  t1 - t0

(* The least of three timings: what the primitive costs when nothing
   else on the machine intervenes. *)
let best_of_3 ctx name f = min (timed ctx name f) (min (timed ctx name f) (timed ctx name f))

(* Close pairs of the last rebuild, flattened [i0; j0; i1; j1; ...]. *)
let close_pairs sp =
  let a = Array.make (2 * Spatial.count_close_pairs sp) 0 in
  let n = ref 0 in
  Spatial.iter_close_pairs sp ~f:(fun i j ->
      a.(!n) <- i;
      a.(!n + 1) <- j;
      n := !n + 2);
  a

let union_all ?(offset = 0) dsu pairs =
  for p = 0 to (Array.length pairs / 2) - 1 do
    ignore (Dsu.union dsu (offset + pairs.(2 * p)) (offset + pairs.((2 * p) + 1)))
  done

(* [l] cut into lists of at most [n], in order. *)
let chunks n l =
  let a = Array.of_list l in
  let len = Array.length a in
  List.init ((len + n - 1) / n) (fun c -> Array.to_list (Array.sub a (c * n) (min n (len - (c * n)))))

let run (ctx : Ctx.t) (cfg : Config.t) ~scenario =
  (* agent-operations per probe *)
  let budget = match ctx.scale with Ctx.Full -> 2_000_000 | Ctx.Smoke -> 40_000 in
  let k = cfg.Config.agents in
  let reps = max 3 (budget / k) in
  let grid, nodes =
    let sim = Simulation.create cfg in
    for _ = 1 to 5 do
      Simulation.step sim
    done;
    (Simulation.grid sim, Simulation.positions sim)
  in
  Gc.compact ();
  let side = Grid.side grid in
  let vec () = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout k in
  let xs = vec () and ys = vec () in
  Array.iteri
    (fun i v ->
      xs.{i} <- Int32.of_int (v mod side);
      ys.{i} <- Int32.of_int (v / side))
    nodes;
  let master = Prng.of_seed (Prng.mix_seed ~seed:ctx.seed ~trial:1) in
  let rngs = Array.init k (fun _ -> Prng.split master) in
  let kernel = cfg.Config.kernel in
  let int5 =
    let rng = Prng.of_seed ctx.seed and n = 2 * budget and sum = ref 0 in
    let dt =
      timed ctx "prng.int" (fun () ->
          for _ = 1 to n do
            sum := !sum + Prng.int rng 5
          done)
    in
    ignore (Sys.opaque_identity !sum);
    per dt n
  in
  let split =
    let n = budget / 10 in
    per
      (timed ctx "prng.split" (fun () ->
           for _ = 1 to n do
             ignore (Sys.opaque_identity (Prng.split master))
           done))
      n
  in
  let move =
    per
      (timed ctx "walk.move_all" (fun () ->
           for _ = 1 to reps do
             Walk.move_all grid kernel rngs ~xs ~ys ~n:k
           done))
      (reps * k)
  in
  (* Index rebuilds after each move, as in the engine; on a Delta the
     incremental component repair runs too, else a reset + union pass
     keeps [dsu] equal to the components. Each step's pairs are kept for
     the DSU probes. *)
  let sp = Spatial.create grid ~radius:cfg.Config.radius in
  let dsu = Dsu.create k in
  let union i j = ignore (Dsu.union dsu i j) and dissolve i = Dsu.dissolve dsu i in
  let rebuild_ns = ref 0 and reconcile_ns = ref 0 and deltas = ref 0 in
  let groups = ref [] and pairs = ref 0 in
  for _ = 1 to reps do
    Walk.move_all grid kernel rngs ~xs ~ys ~n:k;
    let t0 = Ctx.now () in
    let update = Spatial.rebuild_soa sp ~xs ~ys ~n:k in
    let t1 = Ctx.now () in
    rebuild_ns := !rebuild_ns + (t1 - t0);
    (match update with
    | Spatial.Delta ->
        incr deltas;
        Spatial.reconcile sp ~dissolve ~union;
        reconcile_ns := !reconcile_ns + (Ctx.now () - t1)
    | Spatial.Full ->
        Dsu.reset dsu;
        Spatial.iter_close_pairs sp ~f:union);
    let g = close_pairs sp in
    pairs := !pairs + (Array.length g / 2);
    groups := g :: !groups
  done;
  let groups = List.rev !groups in
  let d = Dsu.create k in
  let over_groups name f = best_of_3 ctx name (fun () -> List.iter f groups) in
  let t_reset = over_groups "dsu.reset" (fun _ -> Dsu.reset d) in
  (* Unions, then finds, over each step's pairs with no reset in the
     timed region: the steps of a chunk each own a block of [k] elements
     of one DSU (a single block at population scale), reset between
     chunks; a chunk's DSU stays small enough to sit in cache, as the
     engine's does. *)
  let per_chunk = max 1 (65536 / k) in
  let cd = Dsu.create (per_chunk * k) and chunked = chunks per_chunk groups in
  let union_chunk c = List.iteri (fun b g -> union_all ~offset:(b * k) cd g) c in
  let over_chunks name ~before ~timed =
    let pass () =
      let t0 = Ctx.now () in
      let total =
        List.fold_left
          (fun total c ->
            Dsu.reset cd;
            before c;
            let t = Ctx.now () in
            timed c;
            total + (Ctx.now () - t))
          0 chunked
      in
      Ctx.span ctx ("probe." ^ name) ~t0 ~t1:(Ctx.now ()) ~v:0;
      total
    in
    min (pass ()) (min (pass ()) (pass ()))
  in
  let t_union = over_chunks "dsu.union" ~before:ignore ~timed:union_chunk in
  let t_find =
    over_chunks "dsu.find" ~before:union_chunk ~timed:(fun _ ->
        for i = 0 to Dsu.length cd - 1 do
          ignore (Dsu.find cd i)
        done)
  in
  let finds = List.length chunked * Dsu.length cd in
  (* exchanges over the components of the final positions *)
  Dsu.reset d;
  union_all d (List.nth groups (reps - 1));
  let flood name ex f =
    per (timed ctx name (fun () -> for _ = 1 to reps do f ex ~dsu:d done)) (reps * k)
  in
  let flood_single =
    flood "exchange.flood_single"
      (Exchange.create ~population:k ~predators:0
         ~informed:(Array.init k (fun i -> i mod 7 = 0))
         ~rumors:[||])
      Exchange.flood_single
  in
  let flood_gossip =
    let cap = min k 256 in
    flood "exchange.flood_gossip"
      (Exchange.create ~population:k ~predators:0 ~informed:(Array.make k false)
         ~rumors:(Array.init k (fun i -> Rumor_set.singleton ~capacity:cap (i mod cap))))
      Exchange.flood_gossip
  in
  (* the service front end: compile this workload's scenario, and the
     result cache's atomic put and get *)
  let n = match ctx.scale with Ctx.Full -> 200 | Ctx.Smoke -> 20 in
  let compiled = ref 0 in
  let compile =
    timed ctx "scenario.compile" (fun () ->
        for _ = 1 to n do
          match Scenario.Compile.compile scenario with
          | Ok _ -> incr compiled
          | Error _ -> ()
        done)
  in
  Ctx.check ctx (!compiled = n) "the workload scenario does not compile";
  let store = Service.Store.create ~root:(Ctx.path ctx "probe-store") () in
  let payload = {|{"outcome":"completed","steps":1829,"informed":64,"covered":0}|} in
  let hash = "0123456789abcdef" in
  let put =
    timed ctx "store.put" (fun () ->
        for trial = 1 to n do
          Service.Store.put store ~hash ~seed:ctx.seed ~trial payload
        done)
  in
  let found = ref 0 in
  let get =
    timed ctx "store.get" (fun () ->
        for trial = 1 to n do
          match Service.Store.get store ~hash ~seed:ctx.seed ~trial with
          | Some p when String.equal p payload -> incr found
          | Some _ | None -> ()
        done)
  in
  Ctx.check ctx (!found = n) "the result cache lost entries";
  [
    ("prng.int5_ns", int5);
    ("prng.split_ns", split);
    ("walk.move_all_ns_per_agent", move);
    ("spatial.rebuild_soa_ns_per_agent", per !rebuild_ns (reps * k));
    ("spatial.delta_frac", float_of_int !deltas /. float_of_int reps);
    ("spatial.close_pairs_per_step", float_of_int !pairs /. float_of_int reps);
    ("dsu.reset_ns", per t_reset reps);
    ("dsu.union_ns", if !pairs = 0 then nan else per t_union !pairs);
    ("dsu.find_ns", per t_find finds);
    ("exchange.flood_single_ns_per_agent", flood_single);
    ("exchange.flood_gossip_ns_per_agent", flood_gossip);
    ("scenario.compile_us", per compile n /. 1e3);
    ("store.put_us", per put n /. 1e3);
    ("store.get_us", per get n /. 1e3);
  ]
  @
  if !deltas > 0 then [ ("spatial.reconcile_ns_per_step", per !reconcile_ns !deltas) ]
  else []
