(* Two indexes behind one interface, chosen by the radius.

   Radius >= 1: a flat-array bucket table keyed by Morton (Z-order)
   codes. Buckets live in arrays sized to the bucket grid (allocated
   once); each rebuild touches only the buckets that actually hold
   agents (recorded in [touched]), so a rebuild costs O(k) regardless of
   how many buckets the grid has. Agent ids are stored contiguously in
   [items], grouped by bucket via a counting sort, and each agent's
   coordinates beside them in [sx]/[sy], so the pair scan reads three
   contiguous int arrays. Morton keys interleave the x/y bucket
   coordinates bit by bit, so spatially adjacent buckets land near each
   other in the flat arrays (better locality for the neighbourhood
   scans than row-major keys on large grids). A key is two lookups in
   [col_key], the half key of every coordinate value, so indexing an
   agent divides nothing; the scan steps to a neighbour's key by Morton
   arithmetic and tests the grid's edge on the key's halves, so it
   divides nothing either. The key scheme is invisible to iteration
   order: pairs are visited in first-touch bucket order (a function of
   agent order and bucket *membership*, not bucket ids), agent-id order
   within a bucket, and the same fixed E/N/NE/NW neighbour geometry.

   Radius 0: a close pair is two agents on one node, and no neighbour
   lookup is needed, so nothing is sized to the grid. In the sparse
   regime most agents are alone on their node, so a filter keeps them
   out of the sort. Pass A writes each indexed agent's packed key, its
   node id (y * side + x, below 2^32) above its agent id (below 2^30),
   to [keys] ([reconcile] reads them), and bumps a saturating 0/1/2
   counter for its node in the filter: about 4 slots per agent (a power
   of two, at least [min_filter_bits] bits, sized to the population) of
   4 bits each, 16 to a word, kept in the words of [items] that the
   sort overwrites only after pass B, so it costs no memory of its own.
   A node folds to its slot by [node lxor (node lsr b)], masked, which
   is the identity when the table covers the grid: small grids get an
   exact filter. Two agents on one node share a slot, so every agent
   with company reads 2; an agent that reads 2 alone (a slot shared by
   two nodes) only costs sort work. Pass B collects, in agent order,
   the agents whose slot reads 2, each as its node above its rank among
   them ([cand] maps a rank back to the agent). An LSD counting sort
   over digits of at most 12 bits groups these candidates by node:
   each pass is the same first-touch counting sort as the bucket
   table's, over a digit table of at most 4096 slots. A pass may order
   its digit groups any way it likes (a stable pass keeps every group
   of the earlier passes contiguous), so the result is grouped by node,
   ranks ascending within a group. Up to side 64 a node id is a single
   digit: one pass, whose groups come in first-touch order, i.e. by
   smallest rank, so by smallest agent. With more passes the group
   order is arbitrary, so each run of two or more candidates is
   recorded at its smallest rank (in the sort's spare buffer, free once
   the sort is done) and the pair scan visits ranks in order. Either
   way the pairs come out in the order the interface promises.

   One entry, [rebuild_soa], loads both indexes from int32 coordinate
   vectors. At radius >= 1 it records each indexed agent's coordinates
   ([ax]/[ay]) and bucket; the pair scan has one loop per topology
   (bounded or torus), chosen once per call. The continuum loads its
   agents' cells as coordinates at radius 1, so a bucket is a cell, and
   scans them with [iter_close_points]. *)

type vec = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type update = Full | Delta

(* radius-0 packing: node id above agent id *)
let agent_bits = 30

let agent_mask = (1 lsl agent_bits) - 1

let max_digit_bits = 12

(* The radius-0 filter's fewest slots: 1024, in 64 words *)
let min_filter_bits = 10

(* Half Morton keys of coordinate values, one int32 each (the half key
   of a 16-bit column fits 31 bits). Kept outside the OCaml heap, so the
   GC never scans it and [create]'s minor allocation does not grow with
   the side. *)
type key_table = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* radius 0 keys no columns; an empty table is immutable, so one serves
   every index *)
let no_keys : key_table = Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout 0

type t = {
  grid : Grid.t;
  radius : int;
  bucket_side : int;
  per_row : int;
  side : int;
  torus : bool;
  (* radius >= 1: the half key of every coordinate below its length,
     [min side max_key_cols] (empty at radius 0) *)
  col_key : key_table;
  last_key : int;  (* the half key of the last column, [per_row - 1] *)
  (* the close test's per-axis wrap: [side] on a torus; on a bounded
     grid [max_int], which never wins over a real distance *)
  wrap : int;
  (* the first-touch counting sort's table: one slot per bucket at
     radius >= 1, one per digit value at radius 0 *)
  count : int array;  (* agents per slot *)
  start : int array;  (* offset of each slot's slice of the output *)
  touched : int array;  (* slots used by the last counting pass *)
  mutable touched_len : int;
  (* radius >= 1: agent ids grouped by bucket; radius 0: the
     candidates' packed keys grouped by node *)
  mutable items : int array;
  mutable present : bool array option;  (* agents indexed by the last rebuild *)
  mutable n : int;  (* population of the last rebuild *)
  (* radius >= 1, per agent of the last rebuild: its bucket (0 or a
     bucket id this index wrote, so always < buckets) and coordinates *)
  mutable bucket : int array;
  mutable ax : int array;
  mutable ay : int array;
  (* radius >= 1: the coordinates of [items.(s)] at [sx.(s)], [sy.(s)] *)
  mutable sx : int array;
  mutable sy : int array;
  (* radius 0 *)
  digit_bits : int;
  passes : int;
  node_bits : int;  (* bits of the largest node id *)
  mutable m : int;  (* agents indexed by the last rebuild *)
  (* packed keys of the indexed agents in id order, for the last rebuild
     and the one before (swapped every rebuild) *)
  mutable keys : int array;
  mutable prev_keys : int array;
  (* log2 of the filter's slots: saturating 0/1/2 counts of agents,
     4 bits each, 16 to a word of [items] (see [bump]) *)
  mutable filter_bits : int;
  mutable cands : int;  (* agents whose slot read 2 in the last rebuild *)
  mutable cand : int array;  (* the agent of each candidate rank *)
  (* the sort's other ping-pong buffer; after the sort, when passes > 1,
     the offset in [items] of the run each candidate rank heads, or -1 *)
  mutable spare : int array;
  mutable delta_ok : bool;  (* [keys] covers all n agents at radius 0 *)
  (* [reconcile]'s scratch, grown on first use *)
  mutable entries : int array;
  mutable entries' : int array;
}

(* --- Morton codes (16-bit coordinates interleaved into 32 bits) --- *)

let part1by1 x =
  let x = x land 0xFFFF in
  let x = (x lor (x lsl 8)) land 0x00FF00FF in
  let x = (x lor (x lsl 4)) land 0x0F0F0F0F in
  let x = (x lor (x lsl 2)) land 0x33333333 in
  (x lor (x lsl 1)) land 0x55555555

(* A key is [hx lor (hy lsl 1)] for the half keys [hx], [hy] of its
   column and row: x in the even bits, y in the odd ones. Numbers
   confined to one set of bits compare like the coordinates they
   interleave, so a key's halves are tested against the last column's
   half key directly, and a neighbour's half is one carry away: setting
   the other half's bits to 1 makes [+ 1] carry across them. *)
let x_bits = 0x55555555

let y_bits = 0xAAAAAAAA

let[@inline] next_x b = ((b lor y_bits) + 1) land x_bits

let[@inline] next_y b = ((b lor x_bits) + 1) land y_bits

let[@inline] prev_x hx = (hx - 1) land x_bits

(* Columns [col_key] covers: [Config.max_side], so every grid the
   engine accepts is covered whole by a table of at most 256 KiB. *)
let max_key_cols = 1 lsl 16

(* Bits of the largest node id [side^2 - 1]. *)
let key_bits side =
  let rec go b = if ((side * side) - 1) lsr b = 0 then b else go (b + 1) in
  go 0

(* The bucket grid of the radius >= 1 table: every pair lies within
   Chebyshev distance side - 1, so buckets wider than the grid only
   overflow the column count. Bounded: ceil division (a trailing narrow
   column is harmless). Torus: floor division, merging the remainder
   into the last column — every column is then at least bucket_side
   wide, so wrap-distance <= bucket_side still means cyclically
   adjacent columns. *)
let bucket_side ~side ~radius = max 1 (min radius side)

let per_row ~side ~torus ~radius =
  let bs = bucket_side ~side ~radius in
  if torus then max 1 (side / bs) else (side + bs - 1) / bs

(* Radix passes and digit width of the radius-0 counting sort. *)
let digit_bits_of side =
  let bits = key_bits side in
  let passes = max 1 ((bits + max_digit_bits - 1) / max_digit_bits) in
  ((bits + passes - 1) / passes, passes)

let table_slots ~side ~torus ~radius =
  if radius = 0 then 1 lsl fst (digit_bits_of side)
  else begin
    (* Morton keys need a power-of-two coordinate space; unused
       buckets cost idle array slots, never scan time (only touched
       buckets are visited). *)
    let per_row = per_row ~side ~torus ~radius in
    let np2 = ref 1 in
    while !np2 < per_row do
      np2 := !np2 * 2
    done;
    !np2 * !np2
  end

(* The half key of column (or row) [c >= 0]: its bucket column, clamped
   to the last one, spread to the even bits. *)
let half_key ~bucket_side ~per_row c =
  let col = c / bucket_side in
  part1by1 (if col < per_row then col else per_row - 1)

let create grid ~radius =
  if radius < 0 then invalid_arg "Spatial.create: negative radius";
  let side = Grid.side grid and torus = Grid.is_torus grid in
  let per_row = per_row ~side ~torus ~radius in
  if per_row > 0x10000 then
    invalid_arg "Spatial.create: more than 65536 bucket columns";
  let digit_bits, passes = digit_bits_of side in
  let slots = table_slots ~side ~torus ~radius in
  let bucket_side = bucket_side ~side ~radius in
  let col_key =
    if radius = 0 then no_keys
    else
      Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout
        (min side max_key_cols)
  in
  for c = 0 to Bigarray.Array1.dim col_key - 1 do
    Bigarray.Array1.set col_key c
      (Int32.of_int (half_key ~bucket_side ~per_row c))
  done;
  {
    grid;
    radius;
    bucket_side;
    per_row;
    side;
    torus;
    col_key;
    last_key = part1by1 (per_row - 1);
    wrap = (if torus then side else max_int);
    count = Array.make slots 0;
    start = Array.make slots 0;
    touched = Array.make slots 0;
    touched_len = 0;
    items = [||];
    present = None;
    n = 0;
    bucket = [||];
    ax = [||];
    ay = [||];
    sx = [||];
    sy = [||];
    digit_bits;
    passes;
    node_bits = key_bits side;
    m = 0;
    keys = [||];
    prev_keys = [||];
    filter_bits = 0;
    cands = 0;
    cand = [||];
    spare = [||];
    delta_ok = false;
    entries = [||];
    entries' = [||];
  }

let radius t = t.radius

(* The half key of coordinate [c >= 0]: a [col_key] lookup, or for a
   coordinate past the table (a side above [max_key_cols], which no
   engine run has) the division it saves. *)
let[@inline] col_key t c =
  if c < Bigarray.Array1.dim t.col_key then
    Int32.to_int (Bigarray.Array1.get t.col_key c)
  else half_key ~bucket_side:t.bucket_side ~per_row:t.per_row c

(* The per-step loops below use unchecked array accesses. The indices
   are structurally in range: bucket ids are keys of two half keys of
   clamped columns (< buckets, the table's length), digits are
   masked to [digit_bits] (< the table's length at radius 0), filter
   slots are masked to [filter_bits] (their words fit [items]), agent ids
   are < n and output offsets and candidate ranks < m <= n (every
   per-agent array is grown to n by [begin_rebuild]), and [touched_len]
   counts distinct slots, so it never exceeds the table's length. *)

let[@unsafe_invariant
     "touched.(i < touched_len) holds distinct slots < length count"]
    clear_table t =
  (* reset only the slots the previous counting pass used *)
  for i = 0 to t.touched_len - 1 do
    Array.unsafe_set t.count (Array.unsafe_get t.touched i) 0
  done;
  t.touched_len <- 0

let grow a n =
  if Array.length a < n then
    (Array.make n 0 [@alloc_ok "grow-once scratch: reused on every later step of the same population"])
  else a

(* Bits of the radius-0 filter for [n] agents: about 4 slots per agent,
   at least [min_filter_bits], at most the node ids' bits (where the
   fold is the identity). *)
let rec filter_bits_for t n b =
  if b >= t.node_bits then t.node_bits
  else if 1 lsl b >= 4 * n then b
  else filter_bits_for t n (b + 1)

(* Words of [items] the filter's 4-bit slots take, 16 to a word (the
   last slot has 3 bits, enough for a count of at most 2). *)
let filter_words t = ((1 lsl t.filter_bits) + 15) lsr 4

(* [rebuild_soa]'s prologue: empty the table and size the per-agent
   scratch for [n] agents; at radius 0 the previous rebuild's
   keys move to [prev_keys]. *)
let begin_rebuild ?present t ~n =
  if n > 1 lsl agent_bits then
    invalid_arg "Spatial.rebuild_soa: more than 2^30 agents";
  clear_table t;
  if t.radius = 0 then begin
    let k = t.prev_keys in
    t.prev_keys <- t.keys;
    t.keys <- grow k n;
    t.prev_keys <- grow t.prev_keys n;
    t.filter_bits <- filter_bits_for t n min_filter_bits;
    (* the sort's two buffers trade places, so either may hold the
       filter next *)
    let len = max n (filter_words t) in
    t.items <- grow t.items len;
    t.spare <- grow t.spare len;
    t.cand <- grow t.cand n
  end
  else begin
    t.items <- grow t.items n;
    t.bucket <- grow t.bucket n;
    t.ax <- grow t.ax n;
    t.ay <- grow t.ay n;
    t.sx <- grow t.sx n;
    t.sy <- grow t.sy n
  end;
  t.n <- n;
  t.m <- 0;
  t.present <- present

let[@inline]
    [@unsafe_invariant
      "b is a slot < length count = length touched, and touched_len \
       counts distinct slots"] count_agent t b =
  let c = Array.unsafe_get t.count b in
  if c = 0 then begin
    Array.unsafe_set t.touched t.touched_len b;
    t.touched_len <- t.touched_len + 1
  end;
  Array.unsafe_set t.count b (c + 1)

(* Prefix sums over the touched slots, written as each slot's *end*
   offset: the placing pass then fills every slice backwards, leaving
   [start] at the slice's first entry with no restore pass. A
   tail-recursive loop, so the hot rebuild carries no [ref] cell. *)
let[@unsafe_invariant
     "touched.(i < touched_len) holds distinct slots < length start = \
      length count"] rec end_offsets t i off =
  if i < t.touched_len then begin
    let b = Array.unsafe_get t.touched i in
    let off = off + Array.unsafe_get t.count b in
    Array.unsafe_set t.start b off;
    end_offsets t (i + 1) off
  end

(* --- radius >= 1: the bucket table --- *)

(* Pass 1 for one indexed agent: its coordinates, its bucket, and the
   bucket's count. *)
let[@inline]
    [@unsafe_invariant
      "agent < n <= length ax, ay, bucket (begin_rebuild); the key of \
       two col_key halves is a bucket id < length count"] index_agent t
    agent x y =
  Array.unsafe_set t.ax agent x;
  Array.unsafe_set t.ay agent y;
  let b = col_key t x lor (col_key t y lsl 1) in
  Array.unsafe_set t.bucket agent b;
  count_agent t b

(* One agent of pass 3: into the next free slot, from the end, of its
   bucket's slice, its coordinates beside it. *)
let[@inline]
    [@unsafe_invariant
      "agent < n <= length bucket, ax, ay; bucket holds this rebuild's \
       bucket id of the indexed agent, and start stays within the \
       bucket's slice of items, sx, sy (all of length >= n)"] place_agent
    t agent =
  let b = Array.unsafe_get t.bucket agent in
  let s = Array.unsafe_get t.start b - 1 in
  Array.unsafe_set t.items s agent;
  Array.unsafe_set t.sx s (Array.unsafe_get t.ax agent);
  Array.unsafe_set t.sy s (Array.unsafe_get t.ay agent);
  Array.unsafe_set t.start b s

(* Passes 2 and 3: slice offsets, then agents [0..n-1] into their
   bucket slices in reverse id order, so each slice ends up in
   increasing agent order. *)
let place t =
  end_offsets t 0 0;
  match t.present with
  | None ->
      for agent = t.n - 1 downto 0 do
        place_agent t agent
      done
  | Some pr ->
      for agent = t.n - 1 downto 0 do
        if pr.(agent) then place_agent t agent
      done

(* --- radius 0: the LSD sort of packed node keys --- *)

let[@inline] digit_mask t = (1 lsl t.digit_bits) - 1

let[@inline] digit v ~shift ~mask = (v lsr (agent_bits + shift)) land mask

let[@inline] node_of v = v lsr agent_bits

let[@inline] agent_of v = v land agent_mask

(* a candidate's key holds its rank where an agent's holds the agent *)
let[@inline] rank_of v = v land agent_mask

let[@unsafe_invariant
     "i < m <= length src; digits are masked below length count"]
    count_digit t src ~m ~shift =
  clear_table t;
  let mask = digit_mask t in
  for i = 0 to m - 1 do
    count_agent t (digit (Array.unsafe_get src i) ~shift ~mask)
  done

(* Move [src.(0..m-1)] into [dst] grouped by one digit, stably: the
   table holds this digit's counts of exactly these entries, so the
   slices tile [dst.(0..m-1)] and each entry lands in its own slot. *)
let[@unsafe_invariant
     "i < m <= length src, length dst; digits are masked below length \
      start, whose slices tile 0..m-1 (counts of these m entries)"]
    place_digit t ~src ~dst ~m ~shift =
  end_offsets t 0 0;
  let mask = digit_mask t in
  for i = m - 1 downto 0 do
    let v = Array.unsafe_get src i in
    let d = digit v ~shift ~mask in
    let s = Array.unsafe_get t.start d - 1 in
    Array.unsafe_set dst s v;
    Array.unsafe_set t.start d s
  done

(* Passes [p..passes-1] of the sort of [src.(0..m-1)], pass [p]'s digit
   already counted. Pass [p] writes [a] when [p] is even, else [b], so
   [src] may be [b]: only pass 0 reads it. Returns the sorted buffer. *)
let rec sort_from t p ~src ~m ~a ~b =
  let dst = if p land 1 = 0 then a else b in
  let shift = p * t.digit_bits in
  place_digit t ~src ~dst ~m ~shift;
  if p + 1 < t.passes then begin
    count_digit t dst ~m ~shift:(shift + t.digit_bits);
    sort_from t (p + 1) ~src:dst ~m ~a ~b
  end
  else dst

(* End of the run of equal nodes that starts at [lo] in [v.(0..m-1)]. *)
let rec run_end v ~m key hi =
  if hi < m && node_of v.(hi) = key then run_end v ~m key (hi + 1) else hi

(* The run's smallest agent is its first; record each run of two or
   more candidates on one node in [items.(x..cands-1)] at that agent's
   rank, in [spare]; the current run started at [lo], on node [key]. *)
let[@unsafe_invariant "x < cands <= length items"] rec mark_runs t lo key x =
  if x < t.cands && node_of (Array.unsafe_get t.items x) = key then
    mark_runs t lo key (x + 1)
  else begin
    if x - lo > 1 then t.spare.(rank_of t.items.(lo)) <- lo;
    if x < t.cands then
      mark_runs t x (node_of (Array.unsafe_get t.items x)) (x + 1)
  end

(* Sort the candidates collected into [spare], their first digit counted
   into the table, then record the runs if their order is not already
   by smallest rank. *)
let group_by_node t =
  let out = sort_from t 0 ~src:t.spare ~m:t.cands ~a:t.items ~b:t.spare in
  if out != t.items then begin
    t.spare <- t.items;
    t.items <- out
  end;
  if t.passes > 1 then begin
    Array.fill t.spare 0 t.cands (-1);
    if t.cands > 0 then mark_runs t 0 (node_of t.items.(0)) 1
  end

(* The filter slot of [node]: its bits xor-folded onto the table's,
   the identity when the table covers every node id. *)
let[@inline] slot t node =
  (node lxor (node lsr t.filter_bits)) land ((1 lsl t.filter_bits) - 1)

(* Pass A for one indexed agent on [node]: its filter slot [s], bits
   [4 (s mod 16)] up of word [s / 16] of [items], bumped from c to
   [min (c + 1) 2]. *)
let[@inline]
    [@unsafe_invariant
      "slot masks below 2^filter_bits, so its word is below filter_words \
       <= length items (begin_rebuild)"] bump t node =
  let s = slot t node in
  let w = s lsr 4 and lane = (s land 15) lsl 2 in
  let v = Array.unsafe_get t.items w in
  Array.unsafe_set t.items w (v + ((1 - ((v lsr lane) land 3) lsr 1) lsl lane))

(* 1 when [node]'s filter slot reads 2, else 0 *)
let[@inline]
    [@unsafe_invariant
      "slot masks below 2^filter_bits, so its word is below filter_words \
       <= length items (begin_rebuild)"] crowded t node =
  let s = slot t node in
  ((Array.unsafe_get t.items (s lsr 4) lsr ((s land 15) lsl 2)) land 3) lsr 1

(* Pass A for one agent under a presence mask: its key into [keys.(m)],
   its slot bumped. *)
let[@inline]
    [@unsafe_invariant "m < n <= length keys (begin_rebuild)"] push t node
    agent =
  Array.unsafe_set t.keys t.m ((node lsl agent_bits) lor agent);
  t.m <- t.m + 1;
  bump t node

(* Pass B over [keys.(i..m-1)], [r] candidates found so far: each agent
   into [spare.(r)] as its node above [r], and into [cand.(r)], but [r]
   advances only when its slot reads 2, so a later agent overwrites the
   others. No branch depends on the filter. Returns the candidates. *)
let[@unsafe_invariant
     "r <= i < m <= n <= length keys, spare, cand (begin_rebuild)"] rec
    collect t i r =
  if i >= t.m then r
  else begin
    let key = Array.unsafe_get t.keys i in
    let node = node_of key in
    Array.unsafe_set t.spare r ((node lsl agent_bits) lor r);
    Array.unsafe_set t.cand r (agent_of key);
    collect t (i + 1) (r + crowded t node)
  end

let[@unsafe_invariant
     "i is an agent index < n <= Array1.dim v (rebuild_soa contract)"] vget
    (v : vec) i =
  Int32.to_int (Bigarray.Array1.unsafe_get v i)

let[@hot]
    [@unsafe_invariant
      "radius 0: agent < n with keys grown to n by begin_rebuild"] rebuild_soa
    ?present t ~xs ~ys ~n =
  (* Delta eligibility is judged against the *previous* rebuild:
     radius 0 (components are cell-local) and a previous unmasked SoA
     rebuild of the same population, so every agent has a previous key
     to compare. *)
  let unmasked = match present with None -> true | Some _ -> false in
  let eligible = t.radius = 0 && t.delta_ok && t.n = n && unmasked in
  begin_rebuild ?present t ~n;
  if t.radius = 0 then begin
    Array.fill t.items 0 (filter_words t) 0;
    let side = t.side in
    (match present with
    | None ->
        for agent = 0 to n - 1 do
          let node = (vget ys agent * side) + vget xs agent in
          Array.unsafe_set t.keys agent ((node lsl agent_bits) lor agent);
          bump t node
        done;
        t.m <- n
    | Some pr ->
        for agent = 0 to n - 1 do
          if pr.(agent) then push t ((vget ys agent * side) + vget xs agent) agent
        done);
    t.cands <- collect t 0 0;
    count_digit t t.spare ~m:t.cands ~shift:0;
    group_by_node t
  end
  else begin
    (* pass 1: count agents per bucket, recording first-touched buckets *)
    for agent = 0 to n - 1 do
      if match present with None -> true | Some pr -> pr.(agent) then
        index_agent t agent (vget xs agent) (vget ys agent)
    done;
    place t
  end;
  (* keys is only trustworthy for the next step if every agent was
     indexed this step *)
  t.delta_ok <- t.radius = 0 && unmasked;
  if eligible then Delta else Full

(* [reconcile]'s entries: every agent at its current node, and every
   agent that moved at its previous node too, so that a node an agent
   left still shows up as a group. Returns the entry count. *)
let[@unsafe_invariant
     "len <= 2a + 1 < 2n <= length entries (grown by reconcile)"] rec
    fill_entries t a len =
  if a >= t.n then len
  else begin
    let cur = t.keys.(a) and prev = t.prev_keys.(a) in
    let mask = digit_mask t in
    Array.unsafe_set t.entries len cur;
    count_agent t (digit cur ~shift:0 ~mask);
    if prev = cur then fill_entries t (a + 1) (len + 1)
    else begin
      Array.unsafe_set t.entries (len + 1) prev;
      count_agent t (digit prev ~shift:0 ~mask);
      fill_entries t (a + 1) (len + 2)
    end
  end

let[@inline] is_member t e = t.keys.(agent_of e) = e

(* A node's group of entries is dirty when any agent in it moved: a
   member that arrived, or the entry a departed agent left behind. *)
let rec dirty t v lo hi =
  lo < hi
  &&
  let a = agent_of v.(lo) in
  t.keys.(a) <> t.prev_keys.(a) || dirty t v (lo + 1) hi

(* Dissolve the members of every dirty group in [v.(lo..m-1)], listing
   each such group's start in [dirty_at.(nd..)]; returns the list's
   length. *)
let rec dissolve_dirty t v ~m ~dissolve ~dirty_at lo nd =
  if lo >= m then nd
  else begin
    let hi = run_end v ~m (node_of v.(lo)) (lo + 1) in
    if dirty t v lo hi then begin
      for x = lo to hi - 1 do
        if is_member t v.(x) then dissolve (agent_of v.(x))
      done;
      dirty_at.(nd) <- lo;
      dissolve_dirty t v ~m ~dissolve ~dirty_at hi (nd + 1)
    end
    else dissolve_dirty t v ~m ~dissolve ~dirty_at hi nd
  end

(* Union the members among [v.(x..hi-1)] with the group's first. *)
let rec union_members t v ~union ~first x hi =
  if x < hi then begin
    let e = v.(x) in
    if not (is_member t e) then union_members t v ~union ~first (x + 1) hi
    else if first < 0 then union_members t v ~union ~first:(agent_of e) (x + 1) hi
    else begin
      union first (agent_of e);
      union_members t v ~union ~first (x + 1) hi
    end
  end

let[@hot] reconcile t ~dissolve ~union =
  if t.radius > 0 then invalid_arg "Spatial.reconcile: radius > 0";
  let n = t.n in
  t.entries <- grow t.entries (2 * n);
  t.entries' <- grow t.entries' (2 * n);
  clear_table t;
  let m = fill_entries t 0 0 in
  let v = sort_from t 0 ~src:t.entries ~m ~a:t.entries' ~b:t.entries in
  (* Two phases, dissolve-all before union-any: an agent that left a
     dirty node is a current member of another dirty node (both ends of
     a move are dirty), so phase 1 detaches every element whose old
     component is affected before phase 2 can traverse it — no union
     ever walks through a stale link. A clean node kept its members, and
     at radius 0 their components are internal, so leaving them alone
     is exact. *)
  let dirty_at = if v == t.entries then t.entries' else t.entries in
  let nd = dissolve_dirty t v ~m ~dissolve ~dirty_at 0 0 in
  for i = 0 to nd - 1 do
    let lo = dirty_at.(i) in
    union_members t v ~union ~first:(-1) lo
      (run_end v ~m (node_of v.(lo)) (lo + 1))
  done

(* The distance between coordinates [a] and [b] along one axis. *)
let[@inline] axis_dist t a b =
  let d = a - b in
  let d = if d < 0 then -d else d in
  let w = t.wrap - d in
  if w < d then w else d

(* Whether the agent at [(xi, yi)] and the agent in slot [y] are within
   the radius. *)
let[@inline] [@unsafe_invariant "y is a slot < n <= length sx, sy"] near t
    xi yi y =
  axis_dist t xi (Array.unsafe_get t.sx y)
  + axis_dist t yi (Array.unsafe_get t.sy y)
  <= t.radius

(* Pairs within one bucket's slice; its agents ascend. *)
let[@unsafe_invariant
     "b is a touched bucket < length start, count; its slice lies in \
      items, sx, sy.(0..n-1)"] iter_intra t b ~f =
  let lo = Array.unsafe_get t.start b in
  let hi = lo + Array.unsafe_get t.count b - 1 in
  for x = lo to hi - 1 do
    let xi = Array.unsafe_get t.sx x and yi = Array.unsafe_get t.sy x in
    for y = x + 1 to hi do
      if near t xi yi y then
        f (Array.unsafe_get t.items x) (Array.unsafe_get t.items y)
    done
  done

(* Pairs across two distinct buckets' slices. *)
let[@unsafe_invariant
     "b, b' are buckets < length start, count, each count > 0 only for \
      a bucket touched by this rebuild, whose slice lies in items, sx, \
      sy.(0..n-1)"] iter_inter t b b' ~f =
  let lo = Array.unsafe_get t.start b and lo' = Array.unsafe_get t.start b' in
  let hi = lo + Array.unsafe_get t.count b - 1
  and hi' = lo' + Array.unsafe_get t.count b' - 1 in
  for x = lo to hi do
    let xi = Array.unsafe_get t.sx x and yi = Array.unsafe_get t.sy x in
    for y = lo' to hi' do
      if near t xi yi y then begin
        let i = Array.unsafe_get t.items x and j = Array.unsafe_get t.items y in
        if i < j then f i j else f j i
      end
    done
  done

(* A bucket's pairs with its neighbour [b'], if [b'] holds agents. *)
let[@inline]
    [@unsafe_invariant
      "b' is a key of two halves within the last column's: a bucket id \
       < length count"] probe t b b' ~f =
  if Array.unsafe_get t.count b' > 0 then iter_inter t b b' ~f

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
        if
          present_at t j
          && axis_dist t t.ax.(i) t.ax.(j) + axis_dist t t.ay.(i) t.ay.(j)
             <= t.radius
        then f i j
      done
  done

(* The forward-neighbour scans: every touched bucket's own pairs, then
   those with its E, N, NE and NW neighbours, so each bucket pair is
   considered once. A neighbour's key comes from the bucket's by Morton
   arithmetic. Bounded: a neighbour past the last column or row, or
   before the first, does not exist. *)
let[@unsafe_invariant "idx < touched_len <= length touched"] scan_bounded t
    ~f =
  let last_x = t.last_key and last_y = t.last_key lsl 1 in
  for idx = 0 to t.touched_len - 1 do
    let b = Array.unsafe_get t.touched idx in
    if Array.unsafe_get t.count b > 1 then iter_intra t b ~f;
    let hx = b land x_bits and hy = b land y_bits in
    let east = hx < last_x and ex = next_x b in
    if east then probe t b (ex lor hy) ~f;
    if hy < last_y then begin
      let ny = next_y b in
      probe t b (hx lor ny) ~f;
      if east then probe t b (ex lor ny) ~f;
      if hx > 0 then probe t b (prev_x hx lor ny) ~f
    end
  done

(* Torus, at least 3 columns: indices wrap by compare-and-reset. *)
let[@unsafe_invariant "idx < touched_len <= length touched"] scan_torus t ~f
    =
  let last_x = t.last_key and last_y = t.last_key lsl 1 in
  for idx = 0 to t.touched_len - 1 do
    let b = Array.unsafe_get t.touched idx in
    if Array.unsafe_get t.count b > 1 then iter_intra t b ~f;
    let hx = b land x_bits and hy = b land y_bits in
    let ex = if hx = last_x then 0 else next_x b in
    let ny = if hy = last_y then 0 else next_y b in
    probe t b (ex lor hy) ~f;
    probe t b (hx lor ny) ~f;
    probe t b (ex lor ny) ~f;
    probe t b ((if hx = 0 then last_x else prev_x hx) lor ny) ~f
  done

(* The pairs of the run [items.(lo..hi-1)] (one node, ranks
   ascending), in lexicographic order of their agents. *)
let run_pairs t lo hi ~f =
  for x = lo to hi - 2 do
    let i = t.cand.(rank_of t.items.(x)) in
    for y = x + 1 to hi - 1 do
      f i t.cand.(rank_of t.items.(y))
    done
  done

(* One pass: the runs of [items.(x..cands-1)] already come by smallest
   rank; the current run started at [lo], on node [key]. *)
let[@unsafe_invariant "x < cands <= length items"] rec iter_runs t ~f lo key
    x =
  if x < t.cands && node_of (Array.unsafe_get t.items x) = key then
    iter_runs t ~f lo key (x + 1)
  else begin
    if x - lo > 1 then run_pairs t lo x ~f;
    if x < t.cands then
      iter_runs t ~f x (node_of (Array.unsafe_get t.items x)) (x + 1)
  end

(* The sizes of the runs of two or more in [items.(x..cands-1)]
   folded into [acc]; the current run started at [lo], on node [key]. *)
let[@unsafe_invariant "x < cands <= length items"] rec fold_runs t ~f acc lo
    key x =
  if x < t.cands && node_of (Array.unsafe_get t.items x) = key then
    fold_runs t ~f acc lo key (x + 1)
  else begin
    let acc = if x - lo > 1 then f acc (x - lo) else acc in
    if x < t.cands then
      fold_runs t ~f acc x (node_of (Array.unsafe_get t.items x)) (x + 1)
    else acc
  end

(* Every node's candidates form one run, whichever pass wrote them last,
   so the runs' order does not matter here. *)
let fold_group_sizes t ~init ~f =
  if t.radius <> 0 then invalid_arg "Spatial.fold_group_sizes: radius > 0";
  if t.cands > 0 then fold_runs t ~f init 0 (node_of t.items.(0)) 1 else init

let[@hot] iter_close_pairs t ~f =
  if t.radius = 0 then begin
    if t.passes = 1 then begin
      if t.cands > 0 then iter_runs t ~f 0 (node_of t.items.(0)) 1
    end
    else
      (* [spare] holds the offset of the run each rank heads, or -1 *)
      for r = 0 to t.cands - 1 do
        let lo = t.spare.(r) in
        if lo >= 0 then
          run_pairs t lo
            (run_end t.items ~m:t.cands (node_of t.items.(lo)) (lo + 1))
            ~f
      done
  end
  else if not t.torus then scan_bounded t ~f
  else if t.per_row >= 3 then scan_torus t ~f
  else
    (* with fewer than 3 bucket columns, wrapped forward scans would
       revisit pairs; fall back to the exhaustive scan *)
    iter_all_pairs t ~f

(* --- the continuum's scan: Euclidean distance between float points ---

   The bounded scan again, testing the agents' points [xs], [ys] in
   place of their integer coordinates; a separate loop, so that neither
   test is a call per pair. *)

(* Pairs of bucket [b]'s agents with bucket [b']'s, or with each other
   when [b' = b]. *)
let[@unsafe_invariant
     "b, b' are touched buckets < length start, count; their slices lie \
      in items.(0..n-1), whose agents are < n <= length xs, ys (checked \
      by iter_close_points)"] pairs_points t (xs : float array)
    (ys : float array) radius b b' ~f =
  let r2 = radius *. radius in
  let lo = Array.unsafe_get t.start b and lo' = Array.unsafe_get t.start b' in
  let hi = lo + Array.unsafe_get t.count b - 1
  and hi' = lo' + Array.unsafe_get t.count b' - 1 in
  for x = lo to hi do
    let i = Array.unsafe_get t.items x in
    let xi = Array.unsafe_get xs i and yi = Array.unsafe_get ys i in
    for y = (if b = b' then x + 1 else lo') to hi' do
      let j = Array.unsafe_get t.items y in
      let dx = xi -. Array.unsafe_get xs j
      and dy = yi -. Array.unsafe_get ys j in
      if (dx *. dx) +. (dy *. dy) <= r2 then if i < j then f i j else f j i
    done
  done

let[@inline]
    [@unsafe_invariant
      "b' is a key of two halves within the last column's: a bucket id \
       < length count"] probe_points t xs ys radius b b' ~f =
  if Array.unsafe_get t.count b' > 0 then pairs_points t xs ys radius b b' ~f

let[@unsafe_invariant "idx < touched_len <= length touched"] iter_close_points
    t ~xs ~ys ~radius ~f =
  if t.torus || t.radius = 0 then
    invalid_arg "Spatial.iter_close_points: not a bounded bucket table";
  if Array.length xs < t.n || Array.length ys < t.n then
    invalid_arg "Spatial.iter_close_points: fewer points than agents";
  let last_x = t.last_key and last_y = t.last_key lsl 1 in
  for idx = 0 to t.touched_len - 1 do
    let b = Array.unsafe_get t.touched idx in
    if Array.unsafe_get t.count b > 1 then pairs_points t xs ys radius b b ~f;
    let hx = b land x_bits and hy = b land y_bits in
    let east = hx < last_x and ex = next_x b in
    if east then probe_points t xs ys radius b (ex lor hy) ~f;
    if hy < last_y then begin
      let ny = next_y b in
      probe_points t xs ys radius b (hx lor ny) ~f;
      if east then probe_points t xs ys radius b (ex lor ny) ~f;
      if hx > 0 then probe_points t xs ys radius b (prev_x hx lor ny) ~f
    end
  done

let count_close_pairs t =
  let n = ref 0 in
  iter_close_pairs t ~f:(fun _ _ -> incr n);
  !n
