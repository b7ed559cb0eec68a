(* Xoshiro256** seeded via SplitMix64. Reference: Blackman & Vigna,
   "Scrambled linear pseudorandom number generators", 2018.

   The state of every stream lives in a store: a Bigarray of native
   int64 words, four consecutive slots per stream. A stream [t] is a
   view of its four slots. Without flambda an [Int64.t] is boxed in a
   record field and across a call, but a Bigarray int64 slot is
   unboxed storage: a draw loads the four words, steps them in
   registers and stores them back, allocating nothing. [split_n] seeds
   the engine's k per-agent streams into one shared store, so a
   population costs 32 bytes of state per agent outside the OCaml heap
   plus one small view, not one heap record each; [of_seed], [split]
   and [split_stream] make one-stream stores. SplitMix64 expands a seed
   straight into the four slots, through int64 locals the compiler
   keeps unboxed. *)

type store = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* A stream is the four slots from [offset]. Views are built only by
   [view], so [offset = words * i] with [i < dim store / words]; the
   record is immutable and abstract. *)
type t = { store : store; offset : int }

let words = 4

let create_store streams =
  Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (words * streams)

let[@inline always] view store i = { store; offset = words * i }

(* The slot accessors of the draw loop; [j] is a constant in [0, words). *)
let[@inline always] [@unsafe_invariant
     "offset + j < dim store: view sets offset = words * i with i < dim \
      store / words, and callers pass a constant j < words"] get t j =
  Bigarray.Array1.unsafe_get t.store (t.offset + j)

let[@inline always] [@unsafe_invariant
     "offset + j < dim store: view sets offset = words * i with i < dim \
      store / words, and callers pass a constant j < words"] set t j v =
  Bigarray.Array1.unsafe_set t.store (t.offset + j) v

let[@inline always] rotl64 x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* --- SplitMix64: used only to expand seeds into initial states. --- *)

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline always] splitmix_mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* The first four SplitMix64 outputs from [seed64], written to the
   stream at [offset]: the generator's k-th output mixes
   [seed64 + k * golden_gamma]. *)
let[@inline always] seed_stream (store : store) offset seed64 =
  let z0 = Int64.add seed64 golden_gamma in
  let z1 = Int64.add z0 golden_gamma in
  let z2 = Int64.add z1 golden_gamma in
  let z3 = Int64.add z2 golden_gamma in
  let s0 = splitmix_mix z0 and s1 = splitmix_mix z1 in
  let s2 = splitmix_mix z2 and s3 = splitmix_mix z3 in
  (* All-zero state is a fixed point of xoshiro; splitmix of any seed
     cannot produce four zero outputs, but guard anyway. *)
  if Int64.equal (Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3)) 0L
  then begin
    store.{offset} <- 1L;
    store.{offset + 1} <- 2L;
    store.{offset + 2} <- 3L;
    store.{offset + 3} <- 4L
  end
  else begin
    store.{offset} <- s0;
    store.{offset + 1} <- s1;
    store.{offset + 2} <- s2;
    store.{offset + 3} <- s3
  end

let of_seed seed =
  let store = create_store 1 in
  seed_stream store 0 (Int64.of_int seed);
  view store 0

(* The repo-wide (seed, trial) folding discipline. The golden-ratio
   multiplier spreads adjacent seeds across the integer range so that
   xor-ing in a small trial index cannot collide with a neighbouring
   seed; every engine and experiment derives its root stream from this
   one formula. *)
let mix_seed ~seed ~trial = (seed * 0x9E3779B9) lxor trial

let of_seed_trial ~seed ~trial = of_seed (mix_seed ~seed ~trial)

(* Subsystem streams: salt the mixed (seed, trial) value with the
   subsystem index before expansion, so each subsystem of one run owns a
   stream that cannot collide with — or consume draws from — another's.
   Subsystem 0 is the unsalted stream (xor with 0), so engines that
   predate the helper keep their exact historical streams. *)
let subsystem_salt = 0x9E3779B9

(* --- Core generator --- *)

(* One xoshiro256** step: returns the output and advances the state. *)
let[@inline always] next t =
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = Int64.mul (rotl64 (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set t 0 s0;
  set t 1 s1;
  set t 2 (Int64.logxor s2 tmp);
  set t 3 (rotl64 s3 45);
  result

let bits64 t = next t

(* Derive a fresh seed from two parent outputs, re-expanded through
   splitmix so parent and child states share no linear structure. *)
let[@inline always] split_into parent (store : store) offset =
  let a = next parent in
  let b = next parent in
  seed_stream store offset (Int64.logxor a (rotl64 b 32))

let split t =
  let store = create_store 1 in
  split_into t store 0;
  view store 0

let split_n master n =
  if n < 0 then invalid_arg "Prng.split_n: negative count";
  let store = create_store n in
  for i = 0 to n - 1 do
    split_into master store (words * i)
  done;
  Array.init n (view store)

let split_stream ~seed ~trial ~subsystem =
  if subsystem < 0 then invalid_arg "Prng.split_stream: negative subsystem";
  split (of_seed (mix_seed ~seed ~trial lxor (subsystem * subsystem_salt)))

let copy t =
  let store = create_store 1 in
  for j = 0 to words - 1 do
    store.{j} <- t.store.{t.offset + j}
  done;
  view store 0

let fingerprint t =
  let open Int64 in
  logxor
    (logxor (get t 0) (rotl64 (get t 1) 16))
    (logxor (rotl64 (get t 2) 32) (rotl64 (get t 3) 48))

(* --- Derived draws ---

   Each shifts the output right before converting, so the value fits a
   non-negative OCaml int: bits64 lsr 11 < 2^53 is exact as a float. *)

let[@inline always] bits53 t =
  Int64.to_int (Int64.shift_right_logical (next t) 11)

let bits30 t = Int64.to_int (Int64.shift_right_logical (next t) 34)

(* 62 uniform bits as a non-negative OCaml int. *)
let[@inline always] bits62 t =
  Int64.to_int (Int64.shift_right_logical (next t) 2)

let max62 = (1 lsl 62) - 1

(* Rejection loops live at module level: a local [let rec draw () = ...]
   closure captures its environment and allocates on every call site
   without flambda, which matters on the walk hot path. *)
let rec reject_int t bound limit =
  let v = bits62 t in
  if v <= limit then v mod bound else reject_int t bound limit

(* Bounds 3 and 5 dominate the walk hot path (the lazy kernel draws in
   [0,5) every step; a bounded-grid boundary node has degree 3; the
   default Clementi jump span is 5). A division whose divisor is a
   compile-time constant is strength-reduced to a multiply-high, while
   [reject_int]'s run-time divisor costs three hardware divisions per
   draw (two for the limit, one for the fold). The specialised loops
   below use the same limit value and the same [v mod bound] fold, so
   the output stream is bit-identical to the generic path. *)
let limit_for bound = max62 - (((max62 mod bound) + 1) mod bound)
let limit3 = limit_for 3
let limit5 = limit_for 5

let rec reject3 t =
  let v = bits62 t in
  if v <= limit3 then v mod 3 else reject3 t

let rec reject5 t =
  let v = bits62 t in
  if v <= limit5 then v mod 5 else reject5 t

let[@hot] int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  if bound land (bound - 1) = 0 then
    (* power of two: mask is exact *)
    bits62 t land (bound - 1)
  else if bound = 5 then reject5 t
  else if bound = 3 then reject3 t
  else
    (* rejection sampling on 62-bit draws to avoid modulo bias *)
    let limit = limit_for bound in
    reject_int t bound limit

let rec reject_wide t lo hi =
  let v = bits62 t + (min_int / 2) in
  if v >= lo && v <= hi then v else reject_wide t lo hi

let[@hot] int_incl t lo hi =
  if lo > hi then invalid_arg "Prng.int_incl: empty range";
  if lo = hi then lo
  else
    let span = hi - lo + 1 in
    if span <= 0 then
      (* range wider than max_int: draw raw 62-bit values until in range;
         only reachable for astronomically wide ranges, kept for totality *)
      reject_wide t lo hi
    else lo + int t span

(* 53 high bits, standard doubles-in-[0,1) construction *)
let[@inline] unit_float t = float_of_int (bits53 t) *. 0x1p-53

let float t bound =
  if not (bound > 0.) || not (Float.is_finite bound) then
    invalid_arg "Prng.float: bound must be positive and finite";
  unit_float t *. bound

let[@hot] bool t = Int64.to_int (next t) land 1 = 1

(* [unit_float t < p] without the float: unit_float is [b * 2^-53] for
   the integer [b = bits53 t], and [p * 2^53] is exact, so the draw
   holds exactly when [b < ceil (p * 2^53)]. *)
let bernoulli t ~p =
  if not (p >= 0. && p <= 1.) then invalid_arg "Prng.bernoulli: p not in [0,1]";
  bits53 t < int_of_float (Float.ceil (p *. 0x1p53))

let gaussian t ~mean ~stddev =
  if not (stddev >= 0.) then invalid_arg "Prng.gaussian: negative stddev";
  (* Box–Muller; the second variate is discarded for statelessness. *)
  let u1 = 1. -. unit_float t in
  let u2 = unit_float t in
  let z = sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2) in
  mean +. (stddev *. z)

let choose t arr =
  let len = Array.length arr in
  if len = 0 then invalid_arg "Prng.choose: empty array";
  arr.(int t len)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_distinct t ~m ~bound =
  if m < 0 then invalid_arg "Prng.sample_distinct: negative m";
  if m > bound then invalid_arg "Prng.sample_distinct: m exceeds bound";
  (* Floyd's algorithm: for j in [bound-m, bound), insert a random value
     in [0, j], falling back to j itself on collision. *)
  let seen = Hashtbl.create (2 * m) in
  let out = Array.make m 0 in
  let idx = ref 0 in
  for j = bound - m to bound - 1 do
    let v = int t (j + 1) in
    let v = if Hashtbl.mem seen v then j else v in
    Hashtbl.replace seen v ();
    out.(!idx) <- v;
    incr idx
  done;
  out
