(* Union–find with epoch-stamped lazy reset and bucket-cohort dissolve.

   Every element carries the epoch in which its parent/size entries were
   last written. [reset] just bumps the epoch counter: any element whose
   stamp lags the current epoch is a singleton that has not been touched
   yet, and is healed (parent := self, size := 1, stamp := epoch) the
   first time an operation reaches it. This makes reset O(1), which is
   what lets the engine reset every step, and [Spatial.reconcile]
   callers mix resets with [dissolve]-based repair, without an O(n)
   sweep per step.

   Stale pointers cannot be followed by accident: parent pointers of
   current-epoch elements only ever point at current-epoch elements
   (heal writes self-loops, unions link current roots, and dissolve is
   only sound over whole sets — see below), so [find_root] never needs
   a stamp check past the entry point.

   Touched log: every element stamped in the current epoch is appended,
   once, to [touched] ([heal] appends when it stamps; [dissolve] only
   when the element was not yet stamped this epoch). [reset] empties it
   in O(1). Unions heal both ends first, so every member of a
   non-singleton set is in the log, and an element outside it is an
   untouched singleton: a caller that only cares about non-trivial sets
   visits [touched_count] elements, not [n]. Fresh stamps start at -1,
   below the first epoch, so a structure that was never reset logs its
   first touches too. *)

type t = {
  parent : int array;
  size : int array;
  (* epoch in which parent/size were last written; entries with
     [stamp.(i) <> epoch] are untouched singletons of the current epoch *)
  stamp : int array;
  (* [touched.(0 .. touched_len - 1)]: the elements stamped this epoch,
     each once, in stamping order *)
  touched : int array;
  mutable touched_len : int;
  mutable epoch : int;
  mutable sets : int;
  (* [sets] is only meaningful while [sets_exact]; dissolve cannot know
     how many sets its cohort will re-form, so it taints the counter and
     [set_count] recomputes (and re-caches) by root scan. *)
  mutable sets_exact : bool;
  (* running maximum over sizes produced by [union] this epoch; with no
     dissolves it equals the largest set size (see [max_union_size]) *)
  mutable max_merged : int;
}

let create n =
  if n < 0 then invalid_arg "Dsu.create: negative size";
  {
    parent = Array.init n (fun i -> i);
    size = Array.make n 1;
    stamp = Array.make n (-1);
    touched = Array.make n 0;
    touched_len = 0;
    epoch = 0;
    sets = n;
    sets_exact = true;
    max_merged = min n 1;
  }

let length t = Array.length t.parent

let reset t =
  let n = Array.length t.parent in
  t.epoch <- t.epoch + 1;
  t.touched_len <- 0;
  t.sets <- n;
  t.sets_exact <- true;
  t.max_merged <- min n 1

let check t i =
  if i < 0 || i >= Array.length t.parent then
    invalid_arg "Dsu: element out of range"

(* [check] at every public entry point validates the element, so the
   internal accesses below are unchecked: parent pointers only ever hold
   validated element ids. *)
let[@unsafe_invariant
     "i is validated by [check] at every public entry point; each \
      element is logged at most once per epoch (only when its stamp \
      lags), so touched_len < n = length touched before the append"] heal
    t i =
  if Array.unsafe_get t.stamp i <> t.epoch then begin
    Array.unsafe_set t.stamp i t.epoch;
    Array.unsafe_set t.parent i i;
    Array.unsafe_set t.size i 1;
    Array.unsafe_set t.touched t.touched_len i;
    t.touched_len <- t.touched_len + 1
  end

let[@unsafe_invariant
     "i is a validated element and parent pointers only ever hold \
      validated element ids"] rec find_root t i =
  let p = Array.unsafe_get t.parent i in
  if p = i then i
  else begin
    (* path halving: point to grandparent as we walk up *)
    let gp = Array.unsafe_get t.parent p in
    Array.unsafe_set t.parent i gp;
    find_root t gp
  end

let[@hot] find t i =
  check t i;
  heal t i;
  find_root t i

let[@hot]
    [@unsafe_invariant
      "ri/rj are roots returned by find_root over checked elements"] union t
    i j =
  check t i;
  check t j;
  heal t i;
  heal t j;
  let ri = find_root t i and rj = find_root t j in
  if ri = rj then false
  else begin
    let si = Array.unsafe_get t.size ri
    and sj = Array.unsafe_get t.size rj in
    (* branchy selection instead of a (big, small) tuple: this runs once
       per close pair per step, and the tuple was the only minor-heap
       allocation in the whole union-find fast path *)
    let bigger = si >= sj in
    let big = if bigger then ri else rj in
    let small = if bigger then rj else ri in
    Array.unsafe_set t.parent small big;
    let merged = si + sj in
    Array.unsafe_set t.size big merged;
    if merged > t.max_merged then t.max_merged <- merged;
    t.sets <- t.sets - 1;
    true
  end

let[@hot]
    [@unsafe_invariant "i is validated by [check] on entry"] dissolve t i =
  check t i;
  (* [heal] logs i unless it is already stamped (and so logged) *)
  heal t i;
  Array.unsafe_set t.parent i i;
  Array.unsafe_set t.size i 1;
  t.sets_exact <- false

let touched_count t = t.touched_len

(* The root pass: one loop over the log, writing each logged element and
   its root (or -1 for a singleton) side by side, so a flood reads two
   arrays instead of calling [find]/[set_size] per element. Every logged
   element is stamped this epoch, so no [heal] is needed, and a root's
   [size] is current. *)
let[@hot]
    [@unsafe_invariant
      "u < touched_len <= length touched, and both scratch arrays are \
       checked to hold touched_len entries; logged elements and their \
       roots are validated element ids"] touched_roots t ~members ~roots =
  let len = t.touched_len in
  if Array.length members < len || Array.length roots < len then
    invalid_arg "Dsu.touched_roots: scratch shorter than the touched log";
  for u = 0 to len - 1 do
    let i = Array.unsafe_get t.touched u in
    let r = find_root t i in
    Array.unsafe_set members u i;
    Array.unsafe_set roots u (if Array.unsafe_get t.size r > 1 then r else -1)
  done;
  len

let same_set t i j =
  check t i;
  check t j;
  heal t i;
  heal t j;
  find_root t i = find_root t j

let set_size t i =
  check t i;
  heal t i;
  t.size.(find_root t i)

(* An element is currently a root if it is untouched this epoch (an
   implicit singleton) or an explicit self-loop. *)
let is_root t i = t.stamp.(i) <> t.epoch || t.parent.(i) = i

let set_count t =
  if t.sets_exact then t.sets
  else begin
    let n = Array.length t.parent in
    let count = ref 0 in
    for i = 0 to n - 1 do
      if is_root t i then incr count
    done;
    t.sets <- !count;
    t.sets_exact <- true;
    !count
  end

let max_union_size t = t.max_merged

let groups t =
  let n = Array.length t.parent in
  let acc = Array.make n [] in
  (* walk downward so member lists come out increasing *)
  for i = n - 1 downto 0 do
    heal t i;
    let r = find_root t i in
    acc.(r) <- i :: acc.(r)
  done;
  acc

let iter_sets t ~f =
  let acc = groups t in
  Array.iteri
    (fun r members ->
      match members with
      | [] -> ()
      | _ :: _ -> f ~representative:r ~members)
    acc
