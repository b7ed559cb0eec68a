type t = Registry.t option

let null = None
let of_registry r = Some r
let registry t = t

let ambient_sink : t Atomic.t = Atomic.make null

let set_ambient s = Atomic.set ambient_sink s
let ambient () = Atomic.get ambient_sink
