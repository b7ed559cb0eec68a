(* [bits] is padded to whole 64-bit words, so [union_into] and the
   flood primitives act a word at a time. Bits at or above [capacity]
   are never set, so the byte code of [mem], [add], [iter], [equal] and
   [copy] needs no change. *)
type t = {
  bits : Bytes.t;
  capacity : int;
  mutable cardinal : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Rumor_set.create: negative capacity";
  { bits = Bytes.make (8 * ((capacity + 63) / 64)) '\000'; capacity; cardinal = 0 }

let capacity t = t.capacity

let cardinal t = t.cardinal

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Rumor_set: id out of range"

let mem t i =
  check t i;
  Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t i =
  check t i;
  let byte = Char.code (Bytes.get t.bits (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  if byte land mask <> 0 then 0
  else begin
    Bytes.set t.bits (i lsr 3) (Char.chr (byte lor mask));
    t.cardinal <- t.cardinal + 1;
    1
  end

let singleton ~capacity i =
  let t = create ~capacity in
  ignore (add t i);
  t

(* The bounds-checked 64-bit primitives. [Bytes.get_int64_le] is an
   ordinary function, whose int64 result stays unboxed only if the
   compiler inlines it; a primitive keeps the word unboxed in the loop
   below regardless. OR and popcount act on whole words, so the result
   does not depend on byte order. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* SWAR popcount of a value below 2^32, on plain ints *)
let[@inline always] popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) lsr 24) land 0xFF

let[@inline always] popcount64 w =
  popcount32 (Int64.to_int w land 0xFFFF_FFFF)
  + popcount32 (Int64.to_int (Int64.shift_right_logical w 32))

let check_capacities msg ~src ~dst =
  if src.capacity <> dst.capacity then invalid_arg msg

(* A word of [src] adds nothing when it is zero or when its fresh bits
   [s land lnot d] are; only a word with fresh bits is stored. *)
let rec union_words src dst off stop acc =
  if off >= stop then acc
  else
    let s = get64 src off in
    if s = 0L then union_words src dst (off + 8) stop acc
    else
      let d = get64 dst off in
      let fresh = Int64.logand s (Int64.logxor d (-1L)) in
      if fresh = 0L then union_words src dst (off + 8) stop acc
      else begin
        set64 dst off (Int64.logor d s);
        union_words src dst (off + 8) stop (acc + popcount64 fresh)
      end

let union_into ~src ~dst =
  check_capacities "Rumor_set.union_into: capacity mismatch" ~src ~dst;
  let added = union_words src.bits dst.bits 0 (Bytes.length src.bits) 0 in
  dst.cardinal <- dst.cardinal + added;
  added

(* The component-flood primitives: one accumulator per component is
   seeded by [copy_into], takes every other member by [or_into], is
   recounted once, and is written back by [assign_superset]. Each is a
   plain loop over the words, with no per-word branch. *)

let rec or_words src dst off stop =
  if off < stop then begin
    set64 dst off (Int64.logor (get64 dst off) (get64 src off));
    or_words src dst (off + 8) stop
  end

let or_into ~src ~dst =
  check_capacities "Rumor_set.or_into: capacity mismatch" ~src ~dst;
  or_words src.bits dst.bits 0 (Bytes.length src.bits)

let rec copy_words src dst off stop =
  if off < stop then begin
    set64 dst off (get64 src off);
    copy_words src dst (off + 8) stop
  end

let copy_into ~src ~dst =
  check_capacities "Rumor_set.copy_into: capacity mismatch" ~src ~dst;
  copy_words src.bits dst.bits 0 (Bytes.length src.bits);
  dst.cardinal <- src.cardinal

let rec count_words bits off stop acc =
  if off >= stop then acc
  else count_words bits (off + 8) stop (acc + popcount64 (get64 bits off))

let recount t = t.cardinal <- count_words t.bits 0 (Bytes.length t.bits) 0

(* [dst] is a subset of [src], so equal cardinals mean equal sets and
   nothing to write. *)
let assign_superset ~src ~dst =
  check_capacities "Rumor_set.assign_superset: capacity mismatch" ~src ~dst;
  let added = src.cardinal - dst.cardinal in
  if added <> 0 then begin
    copy_words src.bits dst.bits 0 (Bytes.length src.bits);
    dst.cardinal <- src.cardinal
  end;
  added

let equal a b = a.capacity = b.capacity && Bytes.equal a.bits b.bits

let iter t ~f =
  for i = 0 to t.capacity - 1 do
    if Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0 then
      f i
  done
