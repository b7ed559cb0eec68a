type mechanism =
  | Flood_component
  | Single_hop

type t = {
  population : int;
  predators : int;
  informed : bool array;
  rumors : Rumor_set.t array;
  mutable informed_count : int;
  mutable total_known : int;
  mutable live_preys : int;
  root_informed : bool array;
  newly_informed : bool array;
  (* single-hop: the agents marked in [newly_informed] this step *)
  newly : Intbuf.t;
  (* flood_gossip scratch: one reusable accumulator set per component
     root, materialised on first use and cleared on reuse *)
  acc : Rumor_set.t option array;
  acc_live : bool array;
  acc_used : Intbuf.t;
  (* single_hop_gossip scratch: reusable pre-step snapshots plus a
     flattened (i, j) pair log *)
  snap : Rumor_set.t option array;
  snap_live : bool array;
  snap_used : Intbuf.t;
  pairs : Intbuf.t;
}

let create ~population ~predators ~informed ~rumors =
  if population <= 0 then invalid_arg "Exchange.create: population <= 0";
  if Array.length informed <> population then
    invalid_arg "Exchange.create: informed array size mismatch";
  let gossip = Array.length rumors > 0 in
  {
    population;
    predators;
    informed;
    rumors;
    informed_count = 0;
    total_known = 0;
    live_preys = 0;
    root_informed = Array.make population false;
    newly_informed = Array.make population false;
    newly = Intbuf.create ();
    acc = (if gossip then Array.make population None else [||]);
    acc_live = (if gossip then Array.make population false else [||]);
    acc_used = Intbuf.create ~initial_capacity:(if gossip then 64 else 1) ();
    snap = (if gossip then Array.make population None else [||]);
    snap_live = (if gossip then Array.make population false else [||]);
    snap_used = Intbuf.create ~initial_capacity:(if gossip then 64 else 1) ();
    pairs = Intbuf.create ~initial_capacity:(if gossip then 64 else 1) ();
  }

(* Fetch slot [i] of a scratch-set array, cleared and ready to
   accumulate; allocates only the first time a slot is touched. *)
let[@alloc_ok
     "allocates a scratch set only the first time a slot is touched; \
      steady-state steps reuse it"] scratch_set t slots i =
  match slots.(i) with
  | Some s ->
      Rumor_set.clear s;
      s
  | None ->
      let s = Rumor_set.create ~capacity:(Rumor_set.capacity t.rumors.(i)) in
      slots.(i) <- Some s;
      s

(* Single-rumor flood: a component containing an informed agent becomes
   fully informed. Only agents in the DSU's touched log can share a
   component with anyone (an untouched agent is a singleton, which a
   flood leaves as it is), so each pass walks the log: mark the roots
   of informed members, inform the members of marked roots, then clear
   the marks through the same log (every root is itself logged). Cost
   O(touched), not O(population). *)
let[@hot]
    [@unsafe_invariant
      "Dsu.touched and Dsu.find return validated element ids of a \
       structure checked on entry to hold population elements, and \
       population = length informed = length root_informed"] flood_single
    t ~dsu =
  if Dsu.length dsu <> t.population then
    invalid_arg "Exchange.flood_single: dsu size <> population";
  let touched = Dsu.touched_count dsu in
  for u = 0 to touched - 1 do
    let i = Dsu.touched dsu u in
    if Array.unsafe_get t.informed i then
      Array.unsafe_set t.root_informed (Dsu.find dsu i) true
  done;
  for u = 0 to touched - 1 do
    let i = Dsu.touched dsu u in
    if
      (not (Array.unsafe_get t.informed i))
      && Array.unsafe_get t.root_informed (Dsu.find dsu i)
    then begin
      Array.unsafe_set t.informed i true;
      t.informed_count <- t.informed_count + 1
    end
  done;
  for u = 0 to touched - 1 do
    Array.unsafe_set t.root_informed (Dsu.touched dsu u) false
  done

(* Gossip flood: every agent's rumor set becomes the union over its
   component. Only logged agents can sit in a non-trivial component,
   and singletons are skipped; each non-trivial component accumulates
   into one reused per-root scratch set, then copies back. (Clearing a
   scratch set and unioning the first member into it is the
   allocation-free equivalent of the copy the pre-refactor engine made
   every step.) *)
let[@hot] flood_gossip t ~dsu =
  let touched = Dsu.touched_count dsu in
  for u = 0 to touched - 1 do
    let i = Dsu.touched dsu u in
    if Dsu.set_size dsu i > 1 then begin
      let root = Dsu.find dsu i in
      if t.acc_live.(root) then
        ignore
          (Rumor_set.union_into ~src:t.rumors.(i)
             ~dst:(Option.get t.acc.(root)))
      else begin
        let s = scratch_set t t.acc root in
        ignore (Rumor_set.union_into ~src:t.rumors.(i) ~dst:s);
        t.acc_live.(root) <- true;
        Intbuf.push t.acc_used root
      end
    end
  done;
  for u = 0 to touched - 1 do
    let i = Dsu.touched dsu u in
    if Dsu.set_size dsu i > 1 then begin
      let root = Dsu.find dsu i in
      let acc = Option.get t.acc.(root) in
      let added = Rumor_set.union_into ~src:acc ~dst:t.rumors.(i) in
      t.total_known <- t.total_known + added;
      if added > 0 && not t.informed.(i) then begin
        (* "informed" tracks knowledge of rumor 0 so the frontier metric
           is meaningful for gossip too *)
        if Rumor_set.mem t.rumors.(i) 0 then begin
          t.informed.(i) <- true;
          t.informed_count <- t.informed_count + 1
        end
      end
    end
  done;
  for u = 0 to Intbuf.length t.acc_used - 1 do
    t.acc_live.(Intbuf.get t.acc_used u) <- false
  done;
  Intbuf.clear t.acc_used

(* Role-aware single-rumor flood over an explicit live-pair list (the
   fault path with silent/deaf agents): repeated one-hop passes until a
   fixpoint. The result is the least fixpoint of a monotone operator —
   the closure of reachability through informed, transmitting agents —
   so it is independent of pair order even though knowledge gained
   mid-pass propagates within the pass. Silent agents receive but never
   send; deaf agents send what they hold but never accept. With all
   roles true this computes exactly component flooding over the live
   graph (the component/exchange agreement invariant). *)
let[@hot]
    [@alloc_ok
      "fault path: one changed ref and one pair-visitor closure per \
       step, not per pair"] flood_single_masked t ~iter_pairs ~transmits
    ~accepts =
  let changed = ref true in
  while !changed do
    changed := false;
    iter_pairs (fun i j ->
        if t.informed.(i) && transmits.(i) && (not t.informed.(j)) && accepts.(j)
        then begin
          t.informed.(j) <- true;
          t.informed_count <- t.informed_count + 1;
          changed := true
        end
        else if
          t.informed.(j) && transmits.(j) && (not t.informed.(i)) && accepts.(i)
        then begin
          t.informed.(i) <- true;
          t.informed_count <- t.informed_count + 1;
          changed := true
        end)
  done

(* Single-hop commit: [newly] holds each agent the pair pass marked in
   [newly_informed], once; inform exactly those and clear their marks,
   so the cost is O(newly informed), not O(population). *)
let[@hot] commit_newly t =
  for u = 0 to Intbuf.length t.newly - 1 do
    let i = Intbuf.get t.newly u in
    t.newly_informed.(i) <- false;
    t.informed.(i) <- true
  done;
  t.informed_count <- t.informed_count + Intbuf.length t.newly;
  Intbuf.clear t.newly

(* Mark agent [i] as informed at the end of this step (pair-pass side of
   [commit_newly]); an agent reached over several edges is logged once. *)
let[@hot] mark_newly t i =
  if not t.newly_informed.(i) then begin
    t.newly_informed.(i) <- true;
    Intbuf.push t.newly i
  end

(* Role-aware single-hop (the fault path): as [single_hop_single], plus
   the transmit/accept gates, still based on pre-step knowledge. *)
let[@hot]
    [@alloc_ok
      "fault path: one pair-visitor closure per step, not per pair"] single_hop_single_masked
    t ~iter_pairs ~transmits ~accepts =
  iter_pairs (fun i j ->
      if t.informed.(i) && transmits.(i) && (not t.informed.(j)) && accepts.(j)
      then mark_newly t j
      else if
        t.informed.(j) && transmits.(j) && (not t.informed.(i)) && accepts.(i)
      then mark_newly t i);
  commit_newly t

(* Single-hop exchange (ablation): a rumor crosses at most one
   visibility edge per step, based on pre-step knowledge. *)
let[@hot]
    [@alloc_ok "one pair-visitor closure per step, not per pair"] single_hop_single
    t ~iter_pairs =
  iter_pairs (fun i j ->
      if t.informed.(i) && not t.informed.(j) then mark_newly t j
      else if t.informed.(j) && not t.informed.(i) then mark_newly t i);
  commit_newly t

let[@hot]
    [@alloc_ok
      "snapshot/deliver/visitor closures: a handful per step, not per \
       pair; the sets themselves are reused scratch"] single_hop_gossip t
    ~iter_pairs =
  (* exchanges must all read pre-step sets, so snapshot the set of any
     agent involved in at least one pair before mutating; snapshots and
     the pair log are reused storage, not per-step allocations *)
  let snapshot i =
    if not t.snap_live.(i) then begin
      let s = scratch_set t t.snap i in
      ignore (Rumor_set.union_into ~src:t.rumors.(i) ~dst:s);
      t.snap_live.(i) <- true;
      Intbuf.push t.snap_used i
    end
  in
  iter_pairs (fun i j ->
      snapshot i;
      snapshot j;
      Intbuf.push t.pairs i;
      Intbuf.push t.pairs j);
  let deliver receiver sender =
    let sender_pre = Option.get t.snap.(sender) in
    let added = Rumor_set.union_into ~src:sender_pre ~dst:t.rumors.(receiver) in
    t.total_known <- t.total_known + added;
    if
      added > 0
      && (not t.informed.(receiver))
      && Rumor_set.mem t.rumors.(receiver) 0
    then begin
      t.informed.(receiver) <- true;
      t.informed_count <- t.informed_count + 1
    end
  in
  let np = Intbuf.length t.pairs / 2 in
  for p = 0 to np - 1 do
    let i = Intbuf.get t.pairs (2 * p) and j = Intbuf.get t.pairs ((2 * p) + 1) in
    deliver i j;
    deliver j i
  done;
  Intbuf.clear t.pairs;
  for u = 0 to Intbuf.length t.snap_used - 1 do
    t.snap_live.(Intbuf.get t.snap_used u) <- false
  done;
  Intbuf.clear t.snap_used

(* Predator-prey: direct contact only, no chaining through preys. *)
let[@hot]
    [@alloc_ok "one pair-visitor closure per step, not per pair"] catch_preys
    t ~iter_pairs =
  let k = t.predators in
  iter_pairs (fun i j ->
      (* branchy prey selection: the previous (predator option, prey)
         pair allocated two blocks per close pair; -1 is the "no
         predator-prey contact" sentinel *)
      let prey =
        if i < k && j >= k then j else if j < k && i >= k then i else -1
      in
      if prey >= 0 && not t.informed.(prey) then begin
        t.informed.(prey) <- true;
        t.informed_count <- t.informed_count + 1;
        t.live_preys <- t.live_preys - 1
      end)
