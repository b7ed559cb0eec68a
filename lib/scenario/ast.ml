(* The typed scenario AST, its canonical JSON form and the canonical
   hash. See ast.mli for the model. *)

module Json = Obs.Json
module Protocol = Mobile_network.Protocol
module Config = Mobile_network.Config

type space = Grid | Continuum | Domain

type plan =
  | Open
  | Wall of { gap : int }
  | Rooms of { per_side : int; door : int }

type t = {
  name : string;
  space : space;
  sides : int list;
  agents : int list;
  radii : int list;
  protocols : Protocol.t list;
  kernels : Walk.kernel list;
  exchange : Config.exchange;
  torus : bool;
  seed : int;
  trials : int;
  max_steps : int option;
  faults : Faults.Plan.t;
  plan : plan;
  los_blocking : bool;
  density : float option;
  rc_mult : float option;
  sigma_frac : float;
}

let default =
  {
    name = "";
    space = Grid;
    sides = [ 64 ];
    agents = [ 32 ];
    radii = [ 0 ];
    protocols = [ Protocol.Broadcast ];
    kernels = [ Walk.Lazy_one_fifth ];
    exchange = Config.Flood_component;
    torus = false;
    seed = 0;
    trials = 1;
    max_steps = None;
    faults = Faults.Plan.empty;
    plan = Open;
    los_blocking = false;
    density = None;
    rc_mult = None;
    sigma_frac = 0.25;
  }

(* --- string forms ------------------------------------------------------ *)

let space_to_string = function
  | Grid -> "grid"
  | Continuum -> "continuum"
  | Domain -> "domain"

let space_of_string s =
  match String.lowercase_ascii s with
  | "grid" -> Ok Grid
  | "continuum" -> Ok Continuum
  | "domain" -> Ok Domain
  | s ->
      Error
        (Printf.sprintf "unknown space %S (expected grid, continuum or domain)"
           s)

let protocol_to_string = function
  | Protocol.Broadcast -> "broadcast"
  | Protocol.Gossip -> "gossip"
  | Protocol.Frog -> "frog"
  | Protocol.Broadcast_cover -> "broadcast-cover"
  | Protocol.Cover_walks -> "cover-walks"
  | Protocol.Predator_prey { preys } ->
      Printf.sprintf "predator-prey:%d" preys

let protocol_of_string s =
  match String.lowercase_ascii s with
  | "broadcast" -> Ok Protocol.Broadcast
  | "gossip" -> Ok Protocol.Gossip
  | "frog" -> Ok Protocol.Frog
  | "broadcast-cover" -> Ok Protocol.Broadcast_cover
  | "cover-walks" -> Ok Protocol.Cover_walks
  | s -> (
      match String.index_opt s ':' with
      | Some i when String.equal (String.sub s 0 i) "predator-prey" -> (
          let rest = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt rest with
          | Some preys when preys >= 0 -> Ok (Protocol.Predator_prey { preys })
          | Some _ | None ->
              Error "predator-prey:<preys> needs a non-negative int")
      | Some _ | None ->
          Error
            (Printf.sprintf
               "unknown protocol %S (expected broadcast, gossip, frog, \
                broadcast-cover, cover-walks or predator-prey:<preys>)"
               s))

let kernel_to_string = function
  | Walk.Lazy_one_fifth -> "lazy"
  | Walk.Simple -> "simple"
  | Walk.Lazy_half -> "lazy-half"
  | Walk.Jump rho -> Printf.sprintf "jump:%d" rho

let kernel_of_string s =
  match String.lowercase_ascii s with
  | "lazy" | "lazy-1/5" | "paper" -> Ok Walk.Lazy_one_fifth
  | "simple" | "srw" -> Ok Walk.Simple
  | "lazy-half" | "lazy-1/2" -> Ok Walk.Lazy_half
  | s -> (
      match String.index_opt s ':' with
      | Some i when String.equal (String.sub s 0 i) "jump" -> (
          let rest = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt rest with
          | Some rho when rho >= 0 -> Ok (Walk.Jump rho)
          | Some _ | None -> Error "jump:<rho> needs a non-negative int")
      | Some _ | None ->
          Error
            (Printf.sprintf
               "unknown kernel %S (expected lazy, simple, lazy-half or \
                jump:<rho>)"
               s))

let exchange_to_string = function
  | Config.Flood_component -> "flood"
  | Config.Single_hop -> "single-hop"

let exchange_of_string s =
  match String.lowercase_ascii s with
  | "flood" -> Ok Config.Flood_component
  | "single-hop" -> Ok Config.Single_hop
  | s ->
      Error
        (Printf.sprintf "unknown exchange %S (expected flood or single-hop)" s)

let plan_to_string = function
  | Open -> "open"
  | Wall { gap } -> Printf.sprintf "wall:%d" gap
  | Rooms { per_side; door } -> Printf.sprintf "rooms:%d:%d" per_side door

let plan_of_string s =
  match String.split_on_char ':' (String.lowercase_ascii s) with
  | [ "open" ] -> Ok Open
  | [ "wall"; gap ] -> (
      match int_of_string_opt gap with
      | Some gap when gap >= 1 -> Ok (Wall { gap })
      | Some _ | None -> Error "wall:<gap> needs a positive integer gap")
  | [ "rooms"; per_side; door ] -> (
      match (int_of_string_opt per_side, int_of_string_opt door) with
      | Some per_side, Some door when per_side >= 1 && door >= 1 ->
          Ok (Rooms { per_side; door })
      | _ -> Error "rooms:<per-side>:<door> needs positive integers")
  | _ -> Error "expected open, wall:<gap> or rooms:<per-side>:<door>"

(* --- desugaring --------------------------------------------------------- *)

type cell = {
  c_space : space;
  c_side : int;
  c_agents : int;
  c_radius : int;
  c_protocol : Protocol.t;
  c_kernel : Walk.kernel;
  c_exchange : Config.exchange;
  c_torus : bool;
  c_max_steps : int option;
  c_faults : Faults.Plan.t;
  c_plan : plan;
  c_los_blocking : bool;
  c_density : float option;
  c_rc_mult : float option;
  c_sigma_frac : float;
}

let cells t =
  (* cross product, sides outermost .. kernels innermost; List.concat_map
     keeps the documented order without an explicit index computation *)
  List.concat_map
    (fun side ->
      List.concat_map
        (fun agents ->
          List.concat_map
            (fun radius ->
              List.concat_map
                (fun protocol ->
                  List.map
                    (fun kernel ->
                      {
                        c_space = t.space;
                        c_side = side;
                        c_agents = agents;
                        c_radius = radius;
                        c_protocol = protocol;
                        c_kernel = kernel;
                        c_exchange = t.exchange;
                        c_torus = t.torus;
                        c_max_steps = t.max_steps;
                        c_faults = t.faults;
                        c_plan = t.plan;
                        c_los_blocking = t.los_blocking;
                        c_density = t.density;
                        c_rc_mult = t.rc_mult;
                        c_sigma_frac = t.sigma_frac;
                      })
                    t.kernels)
                t.protocols)
            t.radii)
        t.agents)
    t.sides

let cell_config c ~seed ~trial =
  (match c.c_space with
  | Grid -> ()
  | Continuum | Domain ->
      invalid_arg "Scenario.Ast.cell_config: non-grid cell");
  Config.make ~torus:c.c_torus ~radius:c.c_radius ~kernel:c.c_kernel
    ~protocol:c.c_protocol ~exchange:c.c_exchange ~seed ~trial
    ?max_steps:c.c_max_steps ~faults:c.c_faults ~side:c.c_side
    ~agents:c.c_agents ()

type geometry = { g_box_side : float; g_radius : float; g_sigma : float }

let continuum_geometry c =
  let g_box_side =
    match c.c_density with
    | Some density -> sqrt (float_of_int c.c_agents /. density)
    | None -> float_of_int c.c_side
  in
  let g_radius =
    match c.c_rc_mult with
    | Some m ->
        m
        *. Mobile_network.Theory.continuum_critical_radius
             ~box_side:g_box_side ~agents:c.c_agents
    | None -> float_of_int c.c_radius
  in
  {
    g_box_side;
    g_radius;
    g_sigma = (if g_radius > 0. then g_radius *. c.c_sigma_frac else 1.0);
  }

(* --- canonical form ------------------------------------------------------ *)

let axis ints = Json.List (List.map (fun i -> Json.Int i) ints)

let axis_str to_string vals =
  Json.List (List.map (fun v -> Json.String (to_string v)) vals)

let space_settings t =
  List.filter_map Fun.id
    [
      (match t.plan with
      | Open -> None
      | Wall _ | Rooms _ ->
          Some ("plan", Domain, Json.String (plan_to_string t.plan)));
      (if t.los_blocking then Some ("los_blocking", Domain, Json.Bool true)
       else None);
      Option.map (fun d -> ("density", Continuum, Json.Float d)) t.density;
      Option.map (fun m -> ("rc_mult", Continuum, Json.Float m)) t.rc_mult;
      (if Float.equal t.sigma_frac default.sigma_frac then None
       else Some ("sigma_frac", Continuum, Json.Float t.sigma_frac));
    ]

(* semantic fields in fixed order; [name] is prepended only by
   [canonical_json] so the hash never sees it *)
let semantic_fields t =
  (* a set [density] ([rc_mult]) replaces [side] ([radius]), which the
     compiler then rejects if written, so the canonical form omits it *)
  let unless replaced field = if replaced then [] else [ field ] in
  [ ("space", Json.String (space_to_string t.space)) ]
  @ unless (Option.is_some t.density) ("side", axis t.sides)
  @ [ ("agents", axis t.agents) ]
  @ unless (Option.is_some t.rc_mult) ("radius", axis t.radii)
  @ [
    ("protocol", axis_str protocol_to_string t.protocols);
    ("kernel", axis_str kernel_to_string t.kernels);
    ("exchange", Json.String (exchange_to_string t.exchange));
    ("torus", Json.Bool t.torus);
    ("seed", Json.Int t.seed);
    ("trials", Json.Int t.trials);
    ( "max_steps",
      match t.max_steps with Some m -> Json.Int m | None -> Json.Null );
    ("faults", Faults.Plan.to_json t.faults);
  ]
  @ List.map (fun (k, _, v) -> (k, v)) (space_settings t)

let canonical_json t =
  Json.Assoc (("name", Json.String t.name) :: semantic_fields t)

let to_string t = Json.to_string_pretty (canonical_json t) ^ "\n"

let fnv1a64 s =
  let prime = 0x100000001B3L in
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  Printf.sprintf "%016Lx" !h

let hash t = fnv1a64 (Json.to_string (Json.Assoc (semantic_fields t)))

let cell_scenario c =
  {
    name = "";
    space = c.c_space;
    sides = [ c.c_side ];
    agents = [ c.c_agents ];
    radii = [ c.c_radius ];
    protocols = [ c.c_protocol ];
    kernels = [ c.c_kernel ];
    exchange = c.c_exchange;
    torus = c.c_torus;
    seed = 0;
    trials = 1;
    max_steps = c.c_max_steps;
    faults = c.c_faults;
    plan = c.c_plan;
    los_blocking = c.c_los_blocking;
    density = c.c_density;
    rc_mult = c.c_rc_mult;
    sigma_frac = c.c_sigma_frac;
  }

(* A cell's identity deliberately excludes seed/trials (those key the
   cache alongside the hash) — drop the two fields from the canonical
   object rather than hashing them as pinned zeros' spellings. *)
let cell_json c =
  Json.Assoc
    (List.filter
       (fun (k, _) -> not (String.equal k "seed" || String.equal k "trials"))
       (semantic_fields (cell_scenario c)))

let cell_hash c = fnv1a64 (Json.to_string (cell_json c))
