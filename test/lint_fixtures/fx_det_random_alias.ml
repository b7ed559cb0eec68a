(* expect: exactly one [determinism] finding — ambient PRNG reached
   through a module alias *)
module R = Random

let roll () = R.int 6
