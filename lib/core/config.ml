type exchange = Exchange.mechanism =
  | Flood_component
  | Single_hop

let exchange_to_string = function
  | Flood_component -> "flood"
  | Single_hop -> "single-hop"

type t = {
  side : int;
  torus : bool;
  agents : int;
  radius : int;
  kernel : Walk.kernel;
  protocol : Protocol.t;
  exchange : exchange;
  seed : int;
  trial : int;
  source : int option;
  sources : int;
  max_steps : int option;
  faults : Faults.Plan.t;
}

let make ?(torus = false) ?(radius = 0) ?(kernel = Walk.Lazy_one_fifth)
    ?(protocol = Protocol.Broadcast) ?(exchange = Flood_component)
    ?(seed = 0) ?(trial = 0) ?source ?(sources = 1) ?max_steps
    ?(faults = Faults.Plan.empty) ~side ~agents () =
  {
    side;
    torus;
    agents;
    radius;
    kernel;
    protocol;
    exchange;
    seed;
    trial;
    source;
    sources;
    max_steps;
    faults;
  }

let n t = t.side * t.side

let ilog2 v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go (max 1 v) 0

let default_max_steps t =
  let nodes = n t in
  let lg = ilog2 nodes + 1 in
  (* slowest process we simulate is ~ n log^2 n (single-walk cover time);
     64x headroom keeps timeouts rare without letting runs escape *)
  min 200_000_000 (64 * nodes * lg * lg)

let effective_max_steps t =
  match t.max_steps with Some cap -> cap | None -> default_max_steps t

let max_side = 1 lsl 16

let max_radius = 2 * max_side

let max_population = 1 lsl 30

let max_index_slots = 1 lsl 24

let check_index ~side ~torus ~radius =
  let slots = Spatial.table_slots ~side ~torus ~radius in
  if slots <= max_index_slots then Ok ()
  else
    Error
      (Printf.sprintf
         "side %d at radius %d needs a spatial index of %d buckets; at most \
          %d fit (use a larger radius or a smaller side)"
         side radius slots max_index_slots)

(* The checks run in order and the first failure is reported. Written
   as one if-chain over constant messages, validation allocates nothing
   on success: every simulation, the dense baseline's short runs
   included, pays it once at creation. *)
let side_limit = Printf.sprintf "side must be at most %d" max_side
let radius_limit = Printf.sprintf "radius must be at most %d" max_radius

let population_limit =
  Printf.sprintf "population (agents + preys) must be at most %d"
    max_population

let validate t =
  let broadcast_like =
    match t.protocol with
    | Protocol.Broadcast | Protocol.Frog | Protocol.Broadcast_cover -> true
    | Protocol.Gossip | Protocol.Cover_walks | Protocol.Predator_prey _ ->
        false
  in
  if t.side <= 0 then Error "side must be positive"
  else if t.side > max_side then Error side_limit
  else if t.torus && t.side < 3 then Error "torus needs side >= 3"
  else if t.agents <= 0 then Error "agents must be positive"
  else if t.radius < 0 then Error "radius must be non-negative"
  else if t.radius > max_radius then Error radius_limit
  else
    match check_index ~side:t.side ~torus:t.torus ~radius:t.radius with
    | Error _ as e -> e
    | Ok () -> (
        if match t.max_steps with Some s -> s < 0 | None -> false then
          Error "max_steps must be non-negative"
        else if
          match t.source with Some s -> s < 0 || s >= t.agents | None -> false
        then Error "source agent index out of range"
        else if
          match t.protocol with
          | Protocol.Predator_prey { preys } -> preys < 0
          | Protocol.Broadcast | Protocol.Gossip | Protocol.Frog
          | Protocol.Broadcast_cover | Protocol.Cover_walks ->
              false
        then Error "prey count must be non-negative"
        else if
          t.agents > max_population
          || Protocol.population t.protocol ~k:0 > max_population - t.agents
        then Error population_limit
        else if Option.is_some t.source && not broadcast_like then
          Error "source is only meaningful for broadcast-like protocols"
        else if t.sources < 1 || t.sources > t.agents then
          Error "sources must lie in [1, agents]"
        else if t.sources <> 1 && Option.is_some t.source then
          Error "an explicit source requires sources = 1"
        else
          match Faults.Plan.validate t.faults with
          | Error _ as e -> e
          | Ok () ->
              if Faults.Plan.max_agent_id t.faults >= t.agents then
                Error "fault plan references an agent index out of range"
              else if Faults.Plan.has_roles t.faults && not broadcast_like
              then
                Error
                  "silent/deaf agents are only meaningful for single-rumor \
                   broadcast protocols"
              else Ok ())

let rng_for t = Prng.split_stream ~seed:t.seed ~trial:t.trial ~subsystem:0

let to_string t =
  Printf.sprintf
    "side=%d%s k=%d r=%d kernel=%s proto=%s xchg=%s seed=%d trial=%d%s%s%s"
    t.side
    (if t.torus then " torus" else "")
    t.agents t.radius
    (Walk.kernel_to_string t.kernel)
    (Protocol.to_string t.protocol)
    (exchange_to_string t.exchange)
    t.seed t.trial
    (match t.source with Some s -> Printf.sprintf " src=%d" s | None -> "")
    (if t.sources <> 1 then Printf.sprintf " srcs=%d" t.sources else "")
    (match t.max_steps with
    | Some m -> Printf.sprintf " cap=%d" m
    | None -> "")
    ^
    if Faults.Plan.is_empty t.faults then ""
    else " faults=" ^ Faults.Plan.summary t.faults

let percolation_radius t = Theory.percolation_radius ~n:(n t) ~k:t.agents

let is_subcritical t =
  float_of_int t.radius < Theory.subcritical_radius ~n:(n t) ~k:t.agents
