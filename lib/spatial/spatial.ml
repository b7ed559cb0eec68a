(* Flat-array bucket index keyed by Morton (Z-order) codes. Buckets
   live in arrays sized to the bucket grid (allocated once); each
   rebuild touches only the buckets that actually hold agents (recorded
   in [touched]), so a rebuild costs O(k) regardless of how many buckets
   the grid has. Agent ids are stored contiguously in [items], grouped
   by bucket via a counting sort.

   Two position representations feed the same table:
   - [rebuild] takes the legacy [Grid.node array];
   - [rebuild_soa] takes structure-of-arrays int32 coordinate vectors
     (the engine's zero-allocation path).
   Both record each agent's bucket in [bucket]; the previous rebuild's
   buckets stay in [prev_bucket] (the two arrays swap every rebuild), so
   [reconcile] can derive which buckets changed membership without the
   rebuild paying for it.

   Morton keys interleave the x/y bucket coordinates bit by bit, so
   spatially adjacent buckets land near each other in the flat arrays
   (better locality for the neighbourhood scans than row-major keys on
   large grids). The key scheme is invisible to iteration order: pairs
   are visited in first-touch bucket order (a function of agent order
   and bucket *membership*, not bucket ids), agent-id order within a
   bucket, and the same fixed E/N/NE/NW neighbour geometry — so all
   output streams are byte-identical to the row-major index. *)

type vec = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let empty_vec : vec = Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout 0

type update = Full | Delta

type t = {
  grid : Grid.t;
  radius : int;
  bucket_side : int;
  per_row : int;
  side : int;
  torus : bool;
  count : int array;  (* agents per bucket *)
  start : int array;  (* offset of each bucket's slice in [items] *)
  mutable items : int array;  (* agent ids grouped by bucket *)
  touched : int array;  (* buckets used by the last rebuild *)
  mutable touched_len : int;
  (* node-array path *)
  mutable positions : Grid.node array;
  mutable present : bool array option;  (* agents indexed by the last rebuild *)
  (* structure-of-arrays path *)
  mutable xs : vec;
  mutable ys : vec;
  mutable soa : bool;  (* which representation the last rebuild used *)
  mutable n : int;  (* population of the last rebuild *)
  (* bucket of each agent as of the last rebuild and the one before;
     entries are 0 or bucket ids this index wrote, so always < buckets *)
  mutable bucket : int array;
  mutable prev_bucket : int array;
  mutable delta_ok : bool;  (* [bucket] covers all n agents at radius 0 *)
  (* [reconcile]'s scratch for the dirty-bucket set *)
  dirty : int array;
  dirty_stamp : int array;
  mutable dirty_len : int;
  mutable dirty_epoch : int;
}

(* --- Morton codes (16-bit coordinates interleaved into 32 bits) --- *)

let part1by1 x =
  let x = x land 0xFFFF in
  let x = (x lor (x lsl 8)) land 0x00FF00FF in
  let x = (x lor (x lsl 4)) land 0x0F0F0F0F in
  let x = (x lor (x lsl 2)) land 0x33333333 in
  (x lor (x lsl 1)) land 0x55555555

let compact1by1 x =
  let x = x land 0x55555555 in
  let x = (x lor (x lsr 1)) land 0x33333333 in
  let x = (x lor (x lsr 2)) land 0x0F0F0F0F in
  let x = (x lor (x lsr 4)) land 0x00FF00FF in
  (x lor (x lsr 8)) land 0x0000FFFF

(* Byte-wise interleave table: 256 entries cover one byte per lookup,
   and bucket coordinates fit 16 bits ([create] guards per_row), so two
   lookups per axis. The table stays hot in L1 and beats the five-step
   shift/mask cascade by ~3x on the index hot path. *)
let[@alloc_ok "module initialisation, runs once"] part1by1_tbl =
  Array.init 256 part1by1

let[@unsafe_invariant
     "bx/by are clamped to per_row - 1 < 0x10000 by callers, so the \
      byte and high-byte lookups index part1by1_tbl within its 256 \
      entries"] morton bx by =
  let ex =
    Array.unsafe_get part1by1_tbl (bx land 0xFF)
    lor (Array.unsafe_get part1by1_tbl (bx lsr 8) lsl 16)
  in
  let ey =
    Array.unsafe_get part1by1_tbl (by land 0xFF)
    lor (Array.unsafe_get part1by1_tbl (by lsr 8) lsl 16)
  in
  ex lor (ey lsl 1)
let morton_x b = compact1by1 b
let morton_y b = compact1by1 (b lsr 1)

let create grid ~radius =
  if radius < 0 then invalid_arg "Spatial.create: negative radius";
  (* every pair lies within Chebyshev distance side - 1, so buckets
     wider than the grid only overflow the column count below *)
  let bucket_side = max 1 (min radius (Grid.side grid)) in
  (* bounded: ceil division (a trailing narrow column is harmless).
     torus: floor division, merging the remainder into the last column —
     every column is then at least bucket_side wide, so wrap-distance
     <= bucket_side still means cyclically adjacent columns. *)
  let per_row =
    if Grid.is_torus grid then max 1 (Grid.side grid / bucket_side)
    else (Grid.side grid + bucket_side - 1) / bucket_side
  in
  if per_row > 0x10000 then
    invalid_arg "Spatial.create: more than 65536 bucket columns";
  (* Morton keys need a power-of-two coordinate space; unused buckets
     cost idle array slots, never scan time (only touched buckets are
     visited). *)
  let np2 = ref 1 in
  while !np2 < per_row do
    np2 := !np2 * 2
  done;
  let buckets = !np2 * !np2 in
  {
    grid;
    radius;
    bucket_side;
    per_row;
    side = Grid.side grid;
    torus = Grid.is_torus grid;
    count = Array.make buckets 0;
    start = Array.make buckets 0;
    items = [||];
    touched = Array.make buckets 0;
    touched_len = 0;
    positions = [||];
    present = None;
    xs = empty_vec;
    ys = empty_vec;
    soa = false;
    n = 0;
    bucket = [||];
    prev_bucket = [||];
    delta_ok = false;
    dirty = Array.make buckets 0;
    dirty_stamp = Array.make buckets 0;
    dirty_len = 0;
    dirty_epoch = 0;
  }

let radius t = t.radius

let bucket_of t v =
  let x = Grid.x_of t.grid v and y = Grid.y_of t.grid v in
  let bx = min (x / t.bucket_side) (t.per_row - 1) in
  let by = min (y / t.bucket_side) (t.per_row - 1) in
  morton bx by

(* The per-step loops below use unchecked array accesses. The indices
   are structurally in range: bucket ids come from [bucket_of]/[morton]
   over clamped coordinates (< buckets, the arrays' length), agent ids
   are < n (and [items]/[bucket]/[prev_bucket] are grown to n by
   [begin_rebuild]), and [touched_len]/[dirty_len] count distinct bucket
   ids, so they never exceed [buckets]. *)

let[@unsafe_invariant
     "touched.(i < touched_len) holds distinct bucket ids < length \
      count"] clear_table t =
  (* reset only the buckets the previous rebuild used *)
  for i = 0 to t.touched_len - 1 do
    Array.unsafe_set t.count (Array.unsafe_get t.touched i) 0
  done;
  t.touched_len <- 0

(* Shared prologue of both rebuild paths: empty the table, keep the
   previous rebuild's buckets in [prev_bucket], and size the per-agent
   scratch for [n] agents. *)
let begin_rebuild ?present t ~n =
  clear_table t;
  let b = t.prev_bucket in
  t.prev_bucket <- t.bucket;
  t.bucket <- b;
  if Array.length t.items < n then
    t.items <- (Array.make n 0 [@alloc_ok "grow-once scratch: reused on every later step of the same population"]);
  if Array.length t.bucket < n then
    t.bucket <- (Array.make n 0 [@alloc_ok "grow-once scratch: reused on every later step of the same population"]);
  if Array.length t.prev_bucket < n then
    t.prev_bucket <- (Array.make n 0 [@alloc_ok "grow-once scratch: reused on every later step of the same population"]);
  t.n <- n;
  t.present <- present

let[@inline]
    [@unsafe_invariant
      "b is a bucket id < length count = length touched, and touched_len \
       counts distinct buckets"] count_agent t b =
  let c = Array.unsafe_get t.count b in
  if c = 0 then begin
    Array.unsafe_set t.touched t.touched_len b;
    t.touched_len <- t.touched_len + 1
  end;
  Array.unsafe_set t.count b (c + 1)

(* Prefix sums over the touched buckets, written as each bucket's *end*
   offset: [place] then fills every slice backwards, leaving [start] at
   the slice's first slot with no restore pass. A tail-recursive loop,
   so the hot rebuild carries no [ref] cell. *)
let[@unsafe_invariant
     "touched.(i < touched_len) holds distinct bucket ids < length \
      start = length count"] rec end_offsets t i off =
  if i < t.touched_len then begin
    let b = Array.unsafe_get t.touched i in
    let off = off + Array.unsafe_get t.count b in
    Array.unsafe_set t.start b off;
    end_offsets t (i + 1) off
  end

(* Place agents [0..n-1] into their bucket slices in reverse id order,
   so each slice ends up in increasing agent order. *)
let[@unsafe_invariant
     "agent < n <= length bucket, length items (begin_rebuild); bucket \
      holds this rebuild's bucket id of every indexed agent, and start \
      stays within the bucket's slice of items"] place t =
  match t.present with
  | None ->
      for agent = t.n - 1 downto 0 do
        let b = Array.unsafe_get t.bucket agent in
        let s = Array.unsafe_get t.start b - 1 in
        Array.unsafe_set t.items s agent;
        Array.unsafe_set t.start b s
      done
  | Some pr ->
      for agent = t.n - 1 downto 0 do
        if pr.(agent) then begin
          let b = Array.unsafe_get t.bucket agent in
          let s = Array.unsafe_get t.start b - 1 in
          Array.unsafe_set t.items s agent;
          Array.unsafe_set t.start b s
        end
      done

let rebuild ?present t ~positions =
  let k = Array.length positions in
  begin_rebuild ?present t ~n:k;
  t.positions <- positions;
  t.soa <- false;
  t.delta_ok <- false;
  (* pass 1: count agents per bucket, recording first-touched buckets *)
  for agent = 0 to k - 1 do
    if match present with None -> true | Some pr -> pr.(agent) then begin
      let b = bucket_of t positions.(agent) in
      t.bucket.(agent) <- b;
      count_agent t b
    end
  done;
  (* passes 2 and 3: slice offsets, then agents into their slices *)
  end_offsets t 0 0;
  place t

let[@unsafe_invariant
     "i is an agent index < n <= Array1.dim v (rebuild_soa contract)"] vget
    (v : vec) i =
  Int32.to_int (Bigarray.Array1.unsafe_get v i)

let[@hot]
    [@unsafe_invariant
      "agent < n with bucket grown to n by begin_rebuild; bucket ids \
       come from morton over clamped coordinates < buckets"] rebuild_soa
    ?present t ~xs ~ys ~n =
  (* Delta eligibility is judged against the *previous* rebuild:
     radius 0 (bucket = cell, components are bucket-local) and a
     previous unmasked SoA rebuild of the same population, so every
     agent has a previous bucket to compare. The delta itself is
     distance-agnostic — [reconcile] compares buckets, so even jump
     kernels that hop several cells stay correct. *)
  let unmasked = match present with None -> true | Some _ -> false in
  let eligible = t.radius = 0 && t.delta_ok && t.n = n && unmasked in
  begin_rebuild ?present t ~n;
  t.xs <- xs;
  t.ys <- ys;
  t.soa <- true;
  let bs = t.bucket_side and clamp_hi = t.per_row - 1 in
  (* pass 1: count agents per bucket, recording first-touched buckets *)
  if bs = 1 && unmasked then
    (* radius-0 hot path: bucket side 1 makes bucket coordinates the
       cell coordinates themselves — no per-agent division, and no
       clamp since coordinates are already < per_row *)
    for agent = 0 to n - 1 do
      let b = morton (vget xs agent) (vget ys agent) in
      Array.unsafe_set t.bucket agent b;
      count_agent t b
    done
  else
    for agent = 0 to n - 1 do
      if match present with None -> true | Some pr -> pr.(agent) then begin
        let bx = min (vget xs agent / bs) clamp_hi
        and by = min (vget ys agent / bs) clamp_hi in
        let b = morton bx by in
        Array.unsafe_set t.bucket agent b;
        count_agent t b
      end
    done;
  (* passes 2 and 3: slice offsets, then agents into their slices *)
  end_offsets t 0 0;
  place t;
  (* bucket is only trustworthy for the next step if every agent was
     indexed this step *)
  t.delta_ok <- t.radius = 0 && unmasked;
  if eligible then Delta else Full

let[@unsafe_invariant
     "b is a bucket id < buckets = length dirty = length dirty_stamp, \
      and dirty_len counts distinct marked buckets"] mark_dirty t b =
  if Array.unsafe_get t.dirty_stamp b <> t.dirty_epoch then begin
    Array.unsafe_set t.dirty_stamp b t.dirty_epoch;
    Array.unsafe_set t.dirty t.dirty_len b;
    t.dirty_len <- t.dirty_len + 1
  end

let[@hot]
    [@unsafe_invariant
      "agent < n <= length prev_bucket, length bucket (begin_rebuild), \
       both holding bucket ids < buckets; dirty.(idx < dirty_len) holds \
       bucket ids; start/count slices lie within items, whose length is \
       >= n"] reconcile t ~dissolve ~union =
  (* The dirty set: an agent that switched buckets dirties both its old
     and its new bucket. *)
  t.dirty_epoch <- t.dirty_epoch + 1;
  t.dirty_len <- 0;
  for agent = 0 to t.n - 1 do
    let pb = Array.unsafe_get t.prev_bucket agent
    and b = Array.unsafe_get t.bucket agent in
    if pb <> b then begin
      mark_dirty t pb;
      mark_dirty t b
    end
  done;
  (* Two phases, dissolve-all before union-any: an agent that left a
     dirty bucket is a current member of another dirty bucket (both
     endpoints of a move are marked), so phase 1 detaches every element
     whose old component is affected before phase 2 can traverse it —
     no union ever walks through a stale link. Clean buckets keep their
     membership (any arrival or departure would have dirtied them), and
     at radius 0 their components are internal, so leaving them alone
     is exact. *)
  for idx = 0 to t.dirty_len - 1 do
    let b = Array.unsafe_get t.dirty idx in
    let lo = Array.unsafe_get t.start b
    and c = Array.unsafe_get t.count b in
    if c > 0 then
      for x = lo to lo + c - 1 do
        dissolve (Array.unsafe_get t.items x)
      done
  done;
  for idx = 0 to t.dirty_len - 1 do
    let b = Array.unsafe_get t.dirty idx in
    let lo = Array.unsafe_get t.start b
    and c = Array.unsafe_get t.count b in
    if c > 1 then begin
      let first = Array.unsafe_get t.items lo in
      for x = lo + 1 to lo + c - 1 do
        union first (Array.unsafe_get t.items x)
      done
    end
  done

let axis_dist t a b =
  let d = abs (a - b) in
  if t.torus then min d (t.side - d) else d

let close t i j =
  if t.soa then
    axis_dist t (vget t.xs i) (vget t.xs j)
    + axis_dist t (vget t.ys i) (vget t.ys j)
    <= t.radius
  else Grid.manhattan t.grid t.positions.(i) t.positions.(j) <= t.radius

(* Pairs within one bucket's slice. *)
let iter_intra t b ~f =
  let lo = t.start.(b) in
  let hi = lo + t.count.(b) - 1 in
  for x = lo to hi - 1 do
    let i = t.items.(x) in
    for y = x + 1 to hi do
      let j = t.items.(y) in
      if close t i j then f (min i j) (max i j)
    done
  done

(* Pairs across two distinct buckets' slices. *)
let iter_inter t b b' ~f =
  let lo = t.start.(b) and n = t.count.(b) in
  let lo' = t.start.(b') and n' = t.count.(b') in
  for x = lo to lo + n - 1 do
    let i = t.items.(x) in
    for y = lo' to lo' + n' - 1 do
      let j = t.items.(y) in
      if close t i j then f (min i j) (max i j)
    done
  done

(* Exhaustive O(k^2) fallback used when the bucket structure cannot
   guarantee each pair is seen exactly once (tiny torus layouts). Must
   honour the rebuild's presence mask, which the bucketed paths get for
   free (absent agents never enter [items]). *)
let present_at t i =
  match t.present with None -> true | Some pr -> pr.(i)

let iter_all_pairs t ~f =
  let k = t.n in
  for i = 0 to k - 1 do
    if present_at t i then
      for j = i + 1 to k - 1 do
        if present_at t j && close t i j then f i j
      done
  done

(* Pairs of exactly cohabiting agents within one bucket slice (the
   radius-0 case: bucket side 1 means same bucket = same node). *)
let iter_cohabitants t b ~f =
  let lo = t.start.(b) in
  let hi = lo + t.count.(b) - 1 in
  for x = lo to hi - 1 do
    let i = t.items.(x) in
    for y = x + 1 to hi do
      let j = t.items.(y) in
      f (min i j) (max i j)
    done
  done

(* One forward-neighbour probe of [iter_close_pairs], hoisted to module
   level: a local [scan] closure would capture b/bx/by/f and allocate
   once per touched bucket per step. *)
let scan_neighbour t ~f b bx by dx dy =
  let nx = bx + dx and ny = by + dy in
  let nx = if t.torus then (nx + t.per_row) mod t.per_row else nx in
  let ny = if t.torus then (ny + t.per_row) mod t.per_row else ny in
  if nx >= 0 && nx < t.per_row && ny >= 0 && ny < t.per_row then begin
    let b' = morton nx ny in
    if t.count.(b') > 0 then iter_inter t b b' ~f
  end

let[@hot] iter_close_pairs t ~f =
  if t.radius = 0 then
    for idx = 0 to t.touched_len - 1 do
      let b = t.touched.(idx) in
      if t.count.(b) > 1 then iter_cohabitants t b ~f
    done
  else if t.torus && t.per_row < 3 then
    (* with fewer than 3 bucket columns, wrapped forward scans would
       revisit pairs; fall back to the exhaustive scan *)
    iter_all_pairs t ~f
  else
    for idx = 0 to t.touched_len - 1 do
      let b = t.touched.(idx) in
      iter_intra t b ~f;
      (* scan only forward neighbours (E, N, NE, NW) so each bucket pair
         is considered once; on the torus indices wrap *)
      let bx = morton_x b and by = morton_y b in
      scan_neighbour t ~f b bx by 1 0;
      scan_neighbour t ~f b bx by 0 1;
      scan_neighbour t ~f b bx by 1 1;
      scan_neighbour t ~f b bx by (-1) 1
    done

let count_close_pairs t =
  let n = ref 0 in
  iter_close_pairs t ~f:(fun _ _ -> incr n);
  !n

let near t v i ~range =
  if t.soa then
    let x = Grid.x_of t.grid v and y = Grid.y_of t.grid v in
    axis_dist t x (vget t.xs i) + axis_dist t y (vget t.ys i) <= range
  else Grid.manhattan t.grid v t.positions.(i) <= range

let iter_agents_near t v ~range ~f =
  if range < 0 then invalid_arg "Spatial.iter_agents_near: negative range";
  if t.torus then begin
    (* wrap-aware bucket windows are not worth the complexity for this
       query (it is off the simulation hot path): scan all agents *)
    let k = t.n in
    let indexed i =
      match t.present with None -> true | Some pr -> pr.(i)
    in
    for i = 0 to k - 1 do
      if indexed i && near t v i ~range then f i
    done
  end
  else begin
    let x = Grid.x_of t.grid v and y = Grid.y_of t.grid v in
    let b_lo_x = max 0 ((x - range) / t.bucket_side)
    and b_hi_x = min (t.per_row - 1) ((x + range) / t.bucket_side)
    and b_lo_y = max 0 ((y - range) / t.bucket_side)
    and b_hi_y = min (t.per_row - 1) ((y + range) / t.bucket_side) in
    for by = b_lo_y to b_hi_y do
      for bx = b_lo_x to b_hi_x do
        let b = morton bx by in
        let lo = t.start.(b) in
        for idx = lo to lo + t.count.(b) - 1 do
          let i = t.items.(idx) in
          if near t v i ~range then f i
        done
      done
    done
  end
