(* unused-export, clean: scanned together with fx_export_ok_alias and
   fx_export_ok_user, every value here has a user. *)

val via_alias : int
(* read through fx_export_ok_alias's alias, itself aliased locally *)

module Whole : sig
  val a : int
  val b : int
end
(* passed whole to a functor: every value counts as used *)
