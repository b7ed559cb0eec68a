module A = Fx_export_ok_alias

let x = A.Space.via_alias

module Sum (X : sig
  val a : int
  val b : int
end) =
struct
  let s = X.a + X.b
end

module Applied = Sum (Fx_export_ok.Whole)
