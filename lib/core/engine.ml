type outcome =
  | Completed
  | Timed_out

type report = {
  outcome : outcome;
  steps : int;
  informed : int;
  covered : int;
}

type spec = {
  agents : int;
  protocol : Protocol.t;
  exchange : Exchange.mechanism;
  seed : int;
  trial : int;
  source : int option;
  sources : int;
  max_steps : int;
  faults : Faults.Plan.t;
}

let default_spec ~agents ~seed ~trial ~max_steps =
  {
    agents;
    protocol = Protocol.Broadcast;
    exchange = Exchange.Flood_component;
    seed;
    trial;
    source = None;
    sources = 1;
    max_steps;
    faults = Faults.Plan.empty;
  }

(* The step pipeline's phases, in order. One table names every phase
   sink: histogram [sim.phase.<name>_ns], tracer duration event
   [sim.phase.<name>] and series column [<name>_ns]. Each sink below
   holds one slot per phase, indexed by these constants, so a phase
   boundary is one [phase_end t ph t0]. *)
let phase_names = [| "move"; "index"; "components"; "exchange"; "record" |]
let ph_move = 0
let ph_index = 1
let ph_components = 2
let ph_exchange = 3
let ph_record = 4

(* Pre-resolved phase instruments, allocated only when a recording
   metrics sink is attached. The step pipeline observes one latency
   sample per phase per step; all simulations sharing a registry (e.g.
   the trials of a sweep) aggregate into the same histograms. *)
type phase_timers = {
  ph_hist : Obs.Metric.Histogram.t array;  (* one per phase *)
  ph_steps : Obs.Metric.Counter.t;
}

(* Pre-resolved tracer names, allocated only when a recording tracer is
   attached. The same phase boundaries that feed the histograms also
   emit one duration event per phase per step into the executing
   domain's ring, plus a per-step informed-count counter sample and
   STW GC cycle instants — the timeline view of the same pipeline. *)
type trace_ctx = {
  tc : Obs.Tracer.t;
  tn_phase : Obs.Tracer.name array;  (* one per phase *)
  tn_run : Obs.Tracer.name;
  tn_informed : Obs.Tracer.name;
  tgc : Obs.Tracer.gc_track;
}

(* Per-step timeseries columns (see {!Obs.Series}): the dissemination
   trajectory itself, one int row per sampled step. [frontier] and
   [covered] are the {!Make.frontier_x} and {!Make.covered_count}
   getters. [components] is the DSU's set count, -1 for predator–prey,
   which has no island statistic.
   [theory_residual] is informed(t) - round(k * min(1, t / T_B)) with
   T_B = n/sqrt(k), the paper's Θ̃(n/√k) broadcast bound rendered as a
   linear ramp — a run tracking the bound stays near 0. [minor_words]
   and [gc_minor]/[gc_major] are cumulative since engine creation
   (cumulative counters survive decimation; per-row deltas would not).
   Phase columns are the same boundaries the histograms and tracer see,
   in ns. *)
let series_columns =
  [ "informed"; "frontier"; "components"; "max_island"; "covered";
    "theory_residual" ]
  @ List.map (fun p -> p ^ "_ns") (Array.to_list phase_names)
  @ [ "minor_words"; "gc_minor"; "gc_major" ]

(* The offline re-check of an exported trajectory: the invariants the
   engine guarantees, so a tampered, truncated or buggy-build series
   fails without re-running anything. Rows are read positionally from
   the combined form that [Obs.Series.parse] returns. *)
exception Invalid_row of string

let validate_series json =
  let module J = Obs.Json in
  let columns =
    match J.member "columns" json with
    | Some (J.List cs) -> List.map (function J.String c -> c | _ -> "") cs
    | Some _ | None -> []
  in
  let col name = List.find_index (String.equal name) columns in
  let meta key = Option.bind (J.member "meta" json) (J.member key) in
  let meta_int key =
    match meta key with Some (J.Int v) -> Some v | Some _ | None -> None
  in
  let ints = function
    | J.List cells ->
        Array.of_list (List.map (function J.Int v -> v | _ -> 0) cells)
    | _ -> [||]
  in
  let rows =
    match J.member "data" json with
    | Some (J.List rows) -> Array.of_list (List.map ints rows)
    | Some _ | None -> [||]
  in
  match (col "informed", col "frontier", col "covered") with
  | Some ci, Some cf, Some cc -> (
      let stride =
        match J.member "stride" json with Some (J.Int s) -> s | _ -> 1
      in
      let population = meta_int "population" and nodes = meta_int "nodes" in
      let fail i what =
        raise
          (Invalid_row
             (Printf.sprintf "row %d (step %d): %s" i rows.(i).(0) what))
      in
      let within i c ~lo hi what =
        match (c, hi) with
        | Some c, Some hi when rows.(i).(c) < lo || rows.(i).(c) > hi ->
            fail i (what ^ " out of range")
        | _ -> ()
      in
      let monotone i c what =
        if i > 0 && rows.(i).(c) < rows.(i - 1).(c) then
          fail i (what ^ " decreased")
      in
      (* [Some true] for predator–prey, which has no island statistic *)
      let preys =
        match meta "protocol" with
        | Some (J.String p) ->
            Some (String.starts_with ~prefix:"predator-prey" p)
        | Some _ | None -> None
      in
      (* components in [1, population], or -1 without islands; an
         island of s agents leaves at most population - s other sets *)
      let islands i =
        match col "components" with
        | None -> ()
        | Some cc -> (
            let c = rows.(i).(cc) in
            match (c, preys) with
            | -1, (Some true | None) -> ()
            | -1, Some false -> fail i "components is -1 outside predator-prey"
            | _, Some true -> fail i "components must be -1 for predator-prey"
            | _, (Some false | None) -> (
                if c < 1 then fail i "components out of range";
                within i (Some cc) ~lo:1 population "components";
                match (col "max_island", population) with
                | Some ci, Some p when rows.(i).(ci) > p - c + 1 ->
                    fail i "largest island exceeds population - components + 1"
                | _ -> ()))
      in
      (* the completed flag is decidable from the last row only at
         stride 1, where that row is the final state *)
      let goal =
        match meta "protocol" with
        | Some (J.String ("broadcast" | "frog")) ->
            Option.map (fun p -> (ci, p, "informed count")) population
        | Some (J.String ("broadcast-cover" | "cover-walks")) ->
            Option.map (fun n -> (cc, n, "coverage")) nodes
        | Some _ | None -> None
      in
      let last = Array.length rows - 1 in
      try
        Array.iteri
          (fun i (row : int array) ->
            if row.(0) <> i * stride then
              fail i
                (Printf.sprintf "expected step %d (row i holds step i * stride)"
                   (i * stride));
            within i (Some ci) ~lo:0 population "informed count";
            within i (Some cf) ~lo:(-1)
              (Option.map pred (meta_int "side"))
              "frontier";
            within i (col "max_island") ~lo:0 population "island size";
            islands i;
            within i (Some cc) ~lo:0 nodes "coverage";
            monotone i ci "informed";
            monotone i cf "frontier";
            monotone i cc "coverage")
          rows;
        (match (stride, goal, meta "completed") with
        | 1, Some (c, target, what), Some (J.Bool completed)
          when last >= 0 && completed <> (rows.(last).(c) = target) ->
            fail last ("completed flag inconsistent with final " ^ what)
        | _ -> ());
        Ok ()
      with Invalid_row msg -> Error msg)
  | _ -> Ok ()

(* Pre-resolved series state, allocated only when a recording series is
   attached. [ph_ns] stages the step's per-phase durations so the sample
   committed at the end of the step sees every phase of that step. *)
type series_ctx = {
  sr : Obs.Series.t;
  sc_informed : Obs.Series.col;
  sc_frontier : Obs.Series.col;
  sc_components : Obs.Series.col;
  sc_island : Obs.Series.col;
  sc_covered : Obs.Series.col;
  sc_residual : Obs.Series.col;
  sc_phase : Obs.Series.col array;  (* one per phase *)
  sc_minor : Obs.Series.col;
  sc_gc_minor : Obs.Series.col;
  sc_gc_major : Obs.Series.col;
  ph_ns : int array;  (* one slot per phase *)
  theory_tb : float;  (* T_B = n/sqrt(k); 0 when n is unknown *)
  agents_f : float;  (* k as float, for the residual ramp *)
  base_minor : float;  (* Gc.minor_words at creation *)
  base_gc_minor : int;
  base_gc_major : int;
}

(* Where the island statistic comes from, fixed once by [create]. *)
type islands =
  | Flooded of Dsu.t  (* the exchange floods over the DSU: built in the step *)
  | On_read of Dsu.t  (* built from the step's pairs when first read *)
  | Groups
      (* the space's components are cliques and no fault removes an
         edge: the islands are the nodes' groups, and there is no DSU *)
  | Absent  (* predator–prey has no island statistic *)

let tracks_coverage = function
  | Protocol.Broadcast_cover | Protocol.Cover_walks -> true
  | Protocol.Broadcast | Protocol.Gossip | Protocol.Frog
  | Protocol.Predator_prey _ ->
      false

module Make (S : Space.S) = struct
  type t = {
    spec : spec;
    space : S.t;
    population : int;  (* k, or k + preys *)
    rngs : Prng.t array;  (* one independent stream per individual *)
    pos : S.pos;
    ex : Exchange.t;
    (* Per-spec decisions, fixed once by [create]. *)
    islands : islands;
    visit : int -> int -> unit;
        (* preallocated pair visitor: a union into the DSU, or with
           [Groups] the one-hop mark of {!Exchange.hop} *)
    pairs : (int -> int -> unit) -> unit;
        (* the step's pair source: the index's close pairs, or under
           faults the replay of [live_pairs]; preallocated *)
    body : (t -> unit) option;  (* the exchange; [None]: no exchange *)
    mobility : Space.mobility;
    cover : Space.Cover.t option;
    cover_any : bool;
    (* Fault adversary, [None] for an empty plan: a fault-free step
       never touches fault state. [present] is the adversary's live
       presence mask (churn only); [transmits]/[accepts] its role masks,
       [[||]] without roles. *)
    faults : Faults.t option;
    present : bool array option;
    transmits : bool array;
    accepts : bool array;
    live_pairs : Intbuf.t;  (* flattened (i, j) live-edge log, per step *)
    collect_live : int -> int -> unit;  (* preallocated filter+push *)
    src : int option;
    mutable frontier : int;
    mutable islands_at : int;  (* the step whose graph the DSU holds; -1: none *)
    mutable time : int;
    obs : phase_timers option;
    trc : trace_ctx option;
    ser : series_ctx option;
    timed : bool;  (* obs, trc or ser present: phases read the clock *)
  }

  (* Timing helpers. With metrics, tracing and series all off,
     [phase_start] returns an immediate 0 and [phase_end] is a branch —
     no clock read, no allocation, so the disabled hot path stays
     exactly as fast as before the subsystem existed. [ph] indexes every
     sink's per-phase slot (see [phase_names]). *)
  let[@inline] phase_start t = if t.timed then Obs.Clock.now_ns () else 0

  let[@inline] phase_end t ph t0 =
    if t.timed then begin
      let dur = Obs.Clock.now_ns () - t0 in
      (match t.ser with None -> () | Some s -> s.ph_ns.(ph) <- dur);
      (match t.obs with
      | None -> ()
      | Some p -> Obs.Metric.Histogram.observe p.ph_hist.(ph) dur);
      match t.trc with
      | None -> ()
      | Some c -> Obs.Tracer.duration c.tc c.tn_phase.(ph) ~ts:t0 ~dur
    end

  let covered_count t =
    match t.cover with Some c -> Space.Cover.count c | None -> 0

  (* --- islands ------------------------------------------------------------ *)

  (* The island statistic is the DSU over the step's graph, or in
     clique mode the space's groups. A flood reads the DSU, so
     [build_graph] builds it during the step; every other exchange reads
     raw pairs, so [refresh] builds it from the step's pair source the
     first time the statistic is read: the last rebuild's close pairs,
     or under faults the step's live pairs. A read-time build is no
     phase and records no sample. The engine never dissolves, so the
     DSU's running union maximum is the largest island, in O(1). In
     clique mode a group of s agents on one node is one island of s,
     and every other agent is alone: s - 1 fewer sets per group. *)
  let build_islands t dsu =
    Dsu.reset dsu;
    t.pairs t.visit;
    t.islands_at <- t.time

  let refresh t dsu = if t.islands_at <> t.time then build_islands t dsu

  (* the set count; -1 without islands *)
  let components t =
    match t.islands with
    | Flooded dsu | On_read dsu ->
        refresh t dsu;
        Dsu.set_count dsu
    | Groups ->
        t.population
        - S.fold_group_sizes t.space ~init:0 ~f:(fun merged s ->
              merged + s - 1)
    | Absent -> -1

  let max_island t =
    match t.islands with
    | Flooded dsu | On_read dsu ->
        refresh t dsu;
        Dsu.max_union_size dsu
    | Groups -> S.fold_group_sizes t.space ~init:1 ~f:Int.max
    | Absent -> 0

  (* One series sample: staged at the end of a step so every phase
     duration of that step is in [ph_ns]. Gated on [Series.want] so
     off-stride steps (after a decimation) skip the GC stat reads. *)
  let[@alloc_ok
       "gated on Series.want: runs only on sampled steps, where the GC \
        stat reads allocate a stat record and a boxed float per \
        sample"] series_commit t =
    match t.ser with
    | None -> ()
    | Some s ->
        if Obs.Series.want s.sr ~step:t.time then begin
          let sr = s.sr in
          Obs.Series.stage sr s.sc_informed t.ex.Exchange.informed_count;
          Obs.Series.stage sr s.sc_frontier t.frontier;
          Obs.Series.stage sr s.sc_components (components t);
          Obs.Series.stage sr s.sc_island (max_island t);
          Obs.Series.stage sr s.sc_covered (covered_count t);
          let expected =
            if s.theory_tb <= 0. then 0.
            else
              s.agents_f *. Float.min 1. (float_of_int t.time /. s.theory_tb)
          in
          Obs.Series.stage sr s.sc_residual
            (t.ex.Exchange.informed_count - int_of_float (Float.round expected));
          for ph = 0 to Array.length s.sc_phase - 1 do
            Obs.Series.stage sr s.sc_phase.(ph) s.ph_ns.(ph)
          done;
          Obs.Series.stage sr s.sc_minor
            (int_of_float (Gc.minor_words () -. s.base_minor));
          let st = Gc.quick_stat () in
          Obs.Series.stage sr s.sc_gc_minor
            (st.Gc.minor_collections - s.base_gc_minor);
          Obs.Series.stage sr s.sc_gc_major
            (st.Gc.major_collections - s.base_gc_major);
          Obs.Series.commit sr ~step:t.time
        end

  (* --- information exchange --------------------------------------------- *)

  (* The graph phase. The index is rebuilt from scratch every step: under
     the lazy walk about 4/5 of agents move each step, so nearly every
     occupied bucket changes, and repairing only the changed buckets
     would touch as much as a rebuild, in a more random order
     (THEORY.md). Under faults the live edges are then collected {e once}
     into [live_pairs] — every candidate edge gets exactly one loss draw,
     in index order, shared by the component build and the exchange, so
     the effective graph is one consistent object per step. The DSU is
     built from the step's pair source iff the exchange floods over it
     ([Flooded]). A fault-free step that does not, clique mode's
     included, records no components sample. *)
  let build_graph t =
    let t0 = phase_start t in
    S.rebuild_index ?present:t.present t.space t.pos;
    phase_end t ph_index t0;
    let flooded =
      match t.islands with
      | Flooded _ -> true
      | On_read _ | Groups | Absent -> false
    in
    if flooded || Option.is_some t.faults then begin
      let t1 = phase_start t in
      (match t.faults with
      | None -> ()
      | Some f ->
          Intbuf.clear t.live_pairs;
          if not (Faults.blackout f) then
            S.iter_close_pairs t.space ~f:t.collect_live);
      (match t.islands with
      | Flooded dsu -> build_islands t dsu
      | On_read _ | Groups | Absent -> ());
      phase_end t ph_components t1
    end

  (* The exchange bodies, one per arm of [exchange_body], each a named
     module-level function over the step's pair source: selecting one
     is a code-pointer load, or for the DSU floods one closure built by
     [create], never a per-step allocation. *)
  let ex_flood_single dsu t = Exchange.flood_single t.ex ~dsu

  (* clique mode: one hop from any informed member informs a whole
     component, through the visitor [create] built *)
  let ex_hop t =
    t.pairs t.visit;
    Exchange.commit_hops t.ex

  (* with roles, flooding is the reachability closure through
     transmitting agents rather than plain components *)
  let ex_flood_masked t =
    Exchange.flood_single_masked t.ex ~iter_pairs:t.pairs
      ~transmits:t.transmits ~accepts:t.accepts

  let ex_single_hop t = Exchange.single_hop_single t.ex ~iter_pairs:t.pairs

  let ex_single_hop_masked t =
    Exchange.single_hop_single_masked t.ex ~iter_pairs:t.pairs
      ~transmits:t.transmits ~accepts:t.accepts

  let ex_flood_gossip dsu t = Exchange.flood_gossip t.ex ~dsu

  let ex_single_hop_gossip t =
    Exchange.single_hop_gossip t.ex ~iter_pairs:t.pairs

  let ex_catch_preys t = Exchange.catch_preys t.ex ~iter_pairs:t.pairs

  (* [roles] (silent/deaf agents) only occur with single-rumor
     broadcasts: [create] rejects them elsewhere, and loss, outages and
     churn act purely through the pair source. Without roles the
     component flood gives the masked flood's result, cheaper, and in
     clique mode one hop gives it with no DSU, for either mechanism.
     Cover walks have no exchange: everyone is informed from the
     start. *)
  let exchange_body spec ~roles ~islands =
    match spec.protocol with
    | Protocol.Broadcast | Protocol.Frog | Protocol.Broadcast_cover -> (
        match (islands, spec.exchange, roles) with
        | Flooded dsu, _, _ -> Some (ex_flood_single dsu)
        | Groups, _, _ -> Some ex_hop
        | (On_read _ | Absent), Exchange.Flood_component, _ ->
            Some ex_flood_masked
        | (On_read _ | Absent), Exchange.Single_hop, false -> Some ex_single_hop
        | (On_read _ | Absent), Exchange.Single_hop, true ->
            Some ex_single_hop_masked)
    | Protocol.Gossip -> (
        match islands with
        | Flooded dsu -> Some (ex_flood_gossip dsu)
        | On_read _ | Groups | Absent -> Some ex_single_hop_gossip)
    | Protocol.Cover_walks -> None
    | Protocol.Predator_prey _ -> Some ex_catch_preys

  let exchange t =
    build_graph t;
    match t.body with
    | None -> ()
    | Some body ->
        let t0 = phase_start t in
        body t;
        phase_end t ph_exchange t0

  (* --- stopping predicate ------------------------------------------------ *)

  let is_done t =
    match t.spec.protocol with
    | Protocol.Broadcast | Protocol.Frog ->
        t.ex.Exchange.informed_count = t.population
    | Protocol.Gossip ->
        t.ex.Exchange.total_known = t.population * t.population
    | Protocol.Broadcast_cover | Protocol.Cover_walks -> (
        match t.cover with
        | Some c -> Space.Cover.count c = S.cover_target t.space
        | None -> false)
    | Protocol.Predator_prey _ -> t.ex.Exchange.live_preys = 0

  (* --- observation ------------------------------------------------------- *)

  let observe t =
    t.frontier <-
      S.observe t.space t.pos ~informed:t.ex.Exchange.informed
        ~frontier:t.frontier ~cover:t.cover ~cover_any:t.cover_any

  (* --- construction ------------------------------------------------------ *)

  let create ?metrics ?tracer ?series ~space spec =
    if spec.agents <= 0 then invalid_arg "Engine.create: agents <= 0";
    if spec.max_steps < 0 then invalid_arg "Engine.create: negative max_steps";
    if spec.sources < 1 || spec.sources > spec.agents then
      invalid_arg "Engine.create: sources must lie in [1, agents]";
    (match spec.source with
    | Some s when s < 0 || s >= spec.agents ->
        invalid_arg "Engine.create: source agent index out of range"
    | Some _ | None -> ());
    let metrics =
      match metrics with Some s -> s | None -> Obs.Sink.ambient ()
    in
    let obs =
      match Obs.Sink.registry metrics with
      | None -> None
      | Some reg ->
          Obs.Metric.Counter.incr (Obs.Registry.counter reg "sim.runs");
          let ph_hist =
            Array.map
              (fun p -> Obs.Registry.histogram reg ("sim.phase." ^ p ^ "_ns"))
              phase_names
          in
          Some { ph_hist; ph_steps = Obs.Registry.counter reg "sim.steps" }
    in
    let tracer =
      match tracer with Some tr -> tr | None -> Obs.Tracer.ambient ()
    in
    let trc =
      if not (Obs.Tracer.enabled tracer) then None
      else
        let tn_phase =
          Array.map (fun p -> Obs.Tracer.name tracer ("sim.phase." ^ p))
            phase_names
        in
        Some
          {
            tc = tracer;
            tn_phase;
            tn_run = Obs.Tracer.name tracer "sim.run";
            tn_informed = Obs.Tracer.name tracer "sim.informed";
            tgc = Obs.Tracer.gc_track tracer;
          }
    in
    let ser =
      match series with
      | None -> None
      | Some sr when not (Obs.Series.enabled sr) -> None
      | Some sr ->
          let n = S.theory_n space in
          let theory_tb =
            if n > 0 then Theory.broadcast_theta ~n ~k:spec.agents else 0.
          in
          let st = Gc.quick_stat () in
          Some
            {
              sr;
              sc_informed = Obs.Series.col sr "informed";
              sc_frontier = Obs.Series.col sr "frontier";
              sc_components = Obs.Series.col sr "components";
              sc_island = Obs.Series.col sr "max_island";
              sc_covered = Obs.Series.col sr "covered";
              sc_residual = Obs.Series.col sr "theory_residual";
              sc_phase =
                Array.map (fun p -> Obs.Series.col sr (p ^ "_ns")) phase_names;
              sc_minor = Obs.Series.col sr "minor_words";
              sc_gc_minor = Obs.Series.col sr "gc_minor";
              sc_gc_major = Obs.Series.col sr "gc_major";
              ph_ns = Array.make (Array.length phase_names) 0;
              theory_tb;
              agents_f = float_of_int spec.agents;
              base_minor = Gc.minor_words ();
              base_gc_minor = st.Gc.minor_collections;
              base_gc_major = st.Gc.major_collections;
            }
    in
    let k = spec.agents in
    let population = Protocol.population spec.protocol ~k in
    let faults =
      if Faults.Plan.is_empty spec.faults then None
      else begin
        (if Faults.Plan.has_roles spec.faults then
           match spec.protocol with
           | Protocol.Broadcast | Protocol.Frog | Protocol.Broadcast_cover ->
               ()
           | Protocol.Gossip | Protocol.Cover_walks | Protocol.Predator_prey _
             ->
               invalid_arg
                 "Engine.create: silent/deaf agents require a single-rumor \
                  broadcast protocol");
        Some
          (Faults.create spec.faults ~population ~seed:spec.seed
             ~trial:spec.trial)
      end
    in
    (* Subsystem 0 of the (seed, trial) pair: walks, placement and
       source selection. Fault randomness lives in its own subsystems
       (see {!Faults}), so enabling an adversary never shifts these
       draws. *)
    let master =
      Prng.split_stream ~seed:spec.seed ~trial:spec.trial ~subsystem:0
    in
    let rngs = Prng.split_n master population in
    let pos = S.init_positions space master ~n:population in
    let informed = Array.make population false in
    let rumors =
      match spec.protocol with
      | Protocol.Gossip ->
          Array.init population (fun i -> Rumor_set.singleton ~capacity:k i)
      | Protocol.Broadcast | Protocol.Frog | Protocol.Broadcast_cover
      | Protocol.Cover_walks | Protocol.Predator_prey _ ->
          [||]
    in
    let src, informed_count, live_preys =
      match spec.protocol with
      | Protocol.Broadcast | Protocol.Frog | Protocol.Broadcast_cover ->
          if spec.sources = 1 then begin
            let s =
              match spec.source with
              | Some s -> s
              | None -> Prng.int master k
            in
            informed.(s) <- true;
            (Some s, 1, 0)
          end
          else begin
            let chosen = Prng.sample_distinct master ~m:spec.sources ~bound:k in
            Array.iter (fun s -> informed.(s) <- true) chosen;
            (None, spec.sources, 0)
          end
      | Protocol.Gossip ->
          (* agent 0 holds rumor 0; frontier tracks that rumor *)
          informed.(0) <- true;
          (None, 1, 0)
      | Protocol.Cover_walks ->
          Array.fill informed 0 population true;
          (None, population, 0)
      | Protocol.Predator_prey { preys } ->
          for i = 0 to k - 1 do
            informed.(i) <- true
          done;
          (None, k, preys)
    in
    let ex = Exchange.create ~population ~predators:k ~informed ~rumors in
    ex.Exchange.informed_count <- informed_count;
    ex.Exchange.total_known <- population;  (* gossip: each knows its own *)
    ex.Exchange.live_preys <- live_preys;
    let cover =
      if tracks_coverage spec.protocol && S.cover_cells space > 0 then
        Some (Space.Cover.create ~cells:(S.cover_cells space))
      else None
    in
    let mobility =
      match spec.protocol with
      | Protocol.Frog -> Space.Mobile_informed informed
      | Protocol.Predator_prey _ ->
          Space.Mobile_predators { informed; predators = k }
      | Protocol.Broadcast | Protocol.Gossip | Protocol.Broadcast_cover
      | Protocol.Cover_walks ->
          Space.Mobile_all
    in
    let live_pairs = Intbuf.create () in
    let roles, transmits, accepts =
      match faults with
      | Some f when Faults.has_roles f ->
          (true, Faults.transmits f, Faults.accepts f)
      | Some _ | None -> (false, [||], [||])
    in
    (* Only the component floods read the DSU; the masked flood (roles)
       and single hop read pairs, and cover walks and predator–prey do
       not flood. Clique mode allocates no DSU: the single-rumor floods
       take one hop and the islands come from the space's groups. Loss
       removes edges inside a node, so any fault plan keeps the DSU;
       gossip floods keep it too, since single-hop gossip costs O(m²)
       set unions on a node of m. *)
    let cliques = S.cliques space && Option.is_none faults in
    let islands =
      match (spec.protocol, spec.exchange) with
      | Protocol.Predator_prey _, _ -> Absent
      | Protocol.Gossip, Exchange.Flood_component ->
          Flooded (Dsu.create population)
      | _ when cliques -> Groups
      | ( (Protocol.Broadcast | Protocol.Frog | Protocol.Broadcast_cover),
          Exchange.Flood_component )
        when not roles ->
          Flooded (Dsu.create population)
      | ( ( Protocol.Broadcast | Protocol.Frog | Protocol.Broadcast_cover
          | Protocol.Gossip | Protocol.Cover_walks ),
          _ ) ->
          On_read (Dsu.create population)
    in
    let t =
      {
        spec;
        space;
        population;
        rngs;
        pos;
        ex;
        islands;
        visit =
          (match islands with
          | Flooded dsu | On_read dsu -> fun i j -> ignore (Dsu.union dsu i j)
          | Groups -> Exchange.hop ex
          | Absent -> fun _ _ -> ());
        pairs =
          (match faults with
          | None -> fun f -> S.iter_close_pairs space ~f
          | Some _ ->
              fun f ->
                for p = 0 to (Intbuf.length live_pairs / 2) - 1 do
                  f (Intbuf.get live_pairs (2 * p))
                    (Intbuf.get live_pairs ((2 * p) + 1))
                done);
        body = exchange_body spec ~roles ~islands;
        faults;
        present = Option.bind faults Faults.present_mask;
        transmits;
        accepts;
        live_pairs;
        collect_live =
          (match faults with
          | None -> fun _ _ -> ()
          | Some fl ->
              fun i j ->
                if Faults.edge_live fl i j then begin
                  Intbuf.push live_pairs i;
                  Intbuf.push live_pairs j
                end);
        mobility;
        cover;
        cover_any =
          (match spec.protocol with
          | Protocol.Cover_walks -> true
          | Protocol.Broadcast | Protocol.Gossip | Protocol.Frog
          | Protocol.Broadcast_cover | Protocol.Predator_prey _ ->
              false);
        src;
        frontier = -1;
        islands_at = -1;
        time = 0;
        obs;
        trc;
        ser;
        timed = (obs <> None || trc <> None || ser <> None);
      }
    in
    (* time-0 exchange on the initial placement (§2: G_0 already floods) *)
    (match t.faults with
    | None -> ()
    | Some f -> Faults.begin_step f ~time:0);
    exchange t;
    observe t;
    series_commit t;
    t

  (* --- stepping ----------------------------------------------------------- *)

  let[@hot] step t =
    if not (is_done t) then begin
      t.time <- t.time + 1;
      (match t.ser with
      | None -> ()
      | Some s ->
          (* phases a protocol skips (e.g. no exchange under cover
             walks) must sample as 0, not as the previous step's ns *)
          Array.fill s.ph_ns 0 (Array.length s.ph_ns) 0);
      (match t.faults with
      | None -> ()
      | Some f -> Faults.begin_step f ~time:t.time);
      let t0 = phase_start t in
      S.move_all ?present:t.present t.space t.pos t.rngs t.mobility;
      phase_end t ph_move t0;
      exchange t;
      let t1 = phase_start t in
      observe t;
      phase_end t ph_record t1;
      (match t.obs with
      | None -> ()
      | Some p -> Obs.Metric.Counter.incr p.ph_steps);
      (match t.trc with
      | None -> ()
      | Some c ->
          Obs.Tracer.counter c.tc c.tn_informed ~ts:(Obs.Clock.now_ns ())
            ~v:t.ex.Exchange.informed_count;
          Obs.Tracer.gc_sample c.tc c.tgc);
      series_commit t
    end

  let run ?on_step t =
    let run_t0 = match t.trc with None -> 0 | Some _ -> Obs.Clock.now_ns () in
    let cap = t.spec.max_steps in
    let fire () = match on_step with Some f -> f t | None -> () in
    while (not (is_done t)) && t.time < cap do
      step t;
      fire ()
    done;
    (match t.trc with
    | None -> ()
    | Some c ->
        (* one trial-tagged span over the whole stepped run *)
        Obs.Tracer.duration_v c.tc c.tn_run ~ts:run_t0
          ~dur:(Obs.Clock.now_ns () - run_t0)
          ~v:t.spec.trial);
    {
      outcome = (if is_done t then Completed else Timed_out);
      steps = t.time;
      informed = t.ex.Exchange.informed_count;
      covered = covered_count t;
    }

  (* --- getters ------------------------------------------------------------ *)

  let spec t = t.spec

  let space t = t.space

  let time t = t.time

  let population t = t.population

  let informed_count t = t.ex.Exchange.informed_count

  let informed t = t.ex.Exchange.informed

  let rumors t = t.ex.Exchange.rumors

  let pos t = t.pos

  let source t = t.src

  let frontier_x t = t.frontier

  let island_sizes t =
    match t.islands with
    | Flooded dsu | On_read dsu ->
        refresh t dsu;
        let sizes = ref [] in
        Dsu.iter_sets dsu ~f:(fun ~representative:_ ~members ->
            sizes := List.length members :: !sizes);
        Array.of_list !sizes
    | Groups ->
        (* the groups first, then one 1 per agent alone *)
        let sizes = Array.make (components t) 1 in
        ignore
          (S.fold_group_sizes t.space ~init:0 ~f:(fun g s ->
               sizes.(g) <- s;
               g + 1)
            : int);
        sizes
    | Absent -> [||]

  let live_preys t = t.ex.Exchange.live_preys

  let present_count t =
    match t.faults with
    | None -> t.population
    | Some f -> Faults.present_count f
end
