(* unsafe: an unchecked Bigarray access spelled through a module alias,
   in a module that is not in the audited-unsafe table *)
module A = Bigarray.Array1

let peek (v : (int, Bigarray.int_elt, Bigarray.c_layout) A.t) (i : int) =
  A.unsafe_get v i
