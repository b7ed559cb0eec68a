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
  marks : int array;
  mutable members : int array;
  mutable roots : int array;
  mutable slots : Rumor_set.t array;
  slot_owners : Intbuf.t;
  newly : Intbuf.t;
  pairs : Intbuf.t;
}

let create ~population ~predators ~informed ~rumors =
  if population <= 0 then invalid_arg "Exchange.create: population <= 0";
  if Array.length informed <> population then
    invalid_arg "Exchange.create: informed array size mismatch";
  let gossip = Array.length rumors > 0 in
  (* the slot sets are shared by every component and agent, so one
     capacity must fit all *)
  if
    gossip
    && not
         (Array.for_all
            (fun s -> Rumor_set.capacity s = Rumor_set.capacity rumors.(0))
            rumors)
  then invalid_arg "Exchange.create: rumor set capacities differ";
  {
    population;
    predators;
    informed;
    rumors;
    informed_count = 0;
    total_known = 0;
    live_preys = 0;
    marks = Array.make population (-1);
    members = [||];
    roots = [||];
    slots = [||];
    slot_owners = Intbuf.create ~initial_capacity:(if gossip then 64 else 1) ();
    newly = Intbuf.create ();
    pairs = Intbuf.create ~initial_capacity:(if gossip then 64 else 1) ();
  }

(* The root pass ({!Dsu.touched_roots}) into [members]/[roots], grown
   first if the touched count outgrew them; returns the log's length. *)
let[@alloc_ok
     "grows the root-pass scratch to twice the touched count, capped at \
      the population: a few times a run, never in a warm step"] root_pass
    t ~dsu =
  if Dsu.length dsu <> t.population then
    invalid_arg "Exchange: dsu size <> population";
  let len = Dsu.touched_count dsu in
  if Array.length t.members < len then begin
    let cap = min t.population (2 * len) in
    t.members <- Array.make cap 0;
    t.roots <- Array.make cap 0
  end;
  Dsu.touched_roots dsu ~members:t.members ~roots:t.roots

(* Take the next slot for [owner] (a root, or an agent to snapshot):
   mark the owner with the slot's index and return the slot's set, whose
   contents are stale. Slots are handed out in first-touch order. *)
let[@alloc_ok
     "grows the slot pool by doubling: a few times a run, never in a \
      warm step"] take_slot t owner =
  let s = Intbuf.length t.slot_owners in
  if s = Array.length t.slots then begin
    let capacity = Rumor_set.capacity t.rumors.(0) in
    let old = t.slots in
    t.slots <-
      Array.init
        (max 8 (2 * s))
        (fun j -> if j < s then old.(j) else Rumor_set.create ~capacity)
  end;
  Intbuf.push t.slot_owners owner;
  t.marks.(owner) <- s;
  t.slots.(s)

(* Unmark every slot owner, so [marks] is all -1 again. *)
let release_slots t =
  for s = 0 to Intbuf.length t.slot_owners - 1 do
    t.marks.(Intbuf.get t.slot_owners s) <- -1
  done;
  Intbuf.clear t.slot_owners

(* Single-rumor flood: a component containing an informed agent becomes
   fully informed. Only agents in the DSU's touched log can share a
   component with anyone (an untouched agent is a singleton, which a
   flood leaves as it is), so each pass walks the root pass's two
   arrays: mark the roots of informed members, inform the members of
   marked roots, then clear the marks through the same arrays. Cost
   O(touched), not O(population). *)
let[@hot]
    [@unsafe_invariant
      "u < len <= length members = length roots (root_pass sizes \
       them); members holds agent ids and roots holds -1 or agent ids of \
       a DSU checked to hold population elements, and population = \
       length informed = length marks"] flood_single t ~dsu =
  let len = root_pass t ~dsu in
  let members = t.members and roots = t.roots in
  for u = 0 to len - 1 do
    let r = Array.unsafe_get roots u in
    if r >= 0 && Array.unsafe_get t.informed (Array.unsafe_get members u) then
      Array.unsafe_set t.marks r 0
  done;
  for u = 0 to len - 1 do
    let r = Array.unsafe_get roots u in
    if r >= 0 && Array.unsafe_get t.marks r >= 0 then begin
      let i = Array.unsafe_get members u in
      if not (Array.unsafe_get t.informed i) then begin
        Array.unsafe_set t.informed i true;
        t.informed_count <- t.informed_count + 1
      end
    end
  done;
  for u = 0 to len - 1 do
    let r = Array.unsafe_get roots u in
    if r >= 0 then Array.unsafe_set t.marks r (-1)
  done

(* Gossip flood: every agent's rumor set becomes the union over its
   component. Over the root pass's arrays, skipping singletons: the
   first member of each component seeds a slot set, in first-touch
   order, and the others are ORed in, each entry's root replaced by its
   slot's index; each slot is recounted once; then every member takes
   its slot's set. A member's set is a subset of its component's union,
   so the write-back returns the rumors it gained. *)
let[@hot] flood_gossip t ~dsu =
  let len = root_pass t ~dsu in
  let members = t.members and roots = t.roots in
  for u = 0 to len - 1 do
    let r = roots.(u) in
    if r >= 0 then begin
      let src = t.rumors.(members.(u)) in
      let s = t.marks.(r) in
      if s >= 0 then begin
        Rumor_set.or_into ~src ~dst:t.slots.(s);
        roots.(u) <- s
      end
      else begin
        Rumor_set.copy_into ~src ~dst:(take_slot t r);
        roots.(u) <- t.marks.(r)
      end
    end
  done;
  for s = 0 to Intbuf.length t.slot_owners - 1 do
    Rumor_set.recount t.slots.(s)
  done;
  release_slots t;
  for u = 0 to len - 1 do
    let s = roots.(u) in
    if s >= 0 then begin
      let i = members.(u) in
      let dst = t.rumors.(i) in
      let added = Rumor_set.assign_superset ~src:t.slots.(s) ~dst in
      if added > 0 then begin
        t.total_known <- t.total_known + added;
        (* "informed" tracks knowledge of rumor 0 so the frontier metric
           is meaningful for gossip too *)
        if (not t.informed.(i)) && Rumor_set.mem dst 0 then begin
          t.informed.(i) <- true;
          t.informed_count <- t.informed_count + 1
        end
      end
    end
  done

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
   [marks], once; inform exactly those and clear their marks, so the
   cost is O(newly informed), not O(population). *)
let[@hot] commit_hops t =
  for u = 0 to Intbuf.length t.newly - 1 do
    let i = Intbuf.get t.newly u in
    t.marks.(i) <- -1;
    t.informed.(i) <- true
  done;
  t.informed_count <- t.informed_count + Intbuf.length t.newly;
  Intbuf.clear t.newly

(* Mark agent [i] as informed at the end of this step (pair-pass side of
   [commit_hops]); an agent reached over several edges is logged once. *)
let[@hot] mark_newly t i =
  if t.marks.(i) < 0 then begin
    t.marks.(i) <- 0;
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
  commit_hops t

(* Single-hop exchange (ablation): a rumor crosses at most one
   visibility edge per step, based on pre-step knowledge. [hop] is the
   pair visitor, [commit_hops] the commit. *)
let[@hot] hop t i j =
  if t.informed.(i) && not t.informed.(j) then mark_newly t j
  else if t.informed.(j) && not t.informed.(i) then mark_newly t i

let[@hot]
    [@alloc_ok "one pair-visitor closure per step, not per pair"] single_hop_single
    t ~iter_pairs =
  iter_pairs (hop t);
  commit_hops t

let[@hot]
    [@alloc_ok
      "snapshot/deliver/visitor closures: a handful per step, not per \
       pair; the sets themselves are reused scratch"] single_hop_gossip t
    ~iter_pairs =
  (* exchanges must all read pre-step sets, so snapshot the set of any
     agent involved in at least one pair, into a slot, before mutating;
     slots and the pair log are reused storage, not per-step
     allocations *)
  let snapshot i =
    if t.marks.(i) < 0 then
      Rumor_set.copy_into ~src:t.rumors.(i) ~dst:(take_slot t i)
  in
  iter_pairs (fun i j ->
      snapshot i;
      snapshot j;
      Intbuf.push t.pairs i;
      Intbuf.push t.pairs j);
  let deliver receiver sender =
    let sender_pre = t.slots.(t.marks.(sender)) in
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
  release_slots t

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
