(* unused-export, triggering: scanned together with fx_export_user, each
   of the first four values is one finding. *)

val nothing_uses : int -> int
(* no unit references it *)

val used_inside : int -> int
(* only its own unit references it *)

val seamed_but_used : int [@@seam "a user outside the scanned tree"]
(* a seam on a value fx_export_user references: stale *)

val seam_without_reason : int [@@seam]

val used_elsewhere : int
(* fx_export_user references it: clean *)
